"""The federation: N workflows over one shared substrate, one run loop.

:class:`~repro.serving.manager.WorkflowManager` builds and shares the
simulation kernel, fabric, endpoint monitor, profilers and data plane
between workflows while keeping graphs, schedulers, metrics and event buses
per workflow, and drives them all from the one run loop (the single-workflow
:class:`~repro.core.client.UniFaaSClient` is a one-tenant manager); an
:class:`~repro.serving.arbitration.ArbitrationPolicy` (FIFO, weighted
fair-share, strict-priority, EDF) splits free capacity between tenants every
pump round.
"""

from repro.serving.arbitration import (
    ARBITRATION_POLICIES,
    ArbitrationPolicy,
    FairShareArbitration,
    FifoArbitration,
    StrictPriorityArbitration,
    TenantShare,
    create_arbitration,
)
from repro.serving.manager import (
    ServingSummary,
    WorkflowHandle,
    WorkflowManager,
    jain_index,
)

__all__ = [
    "ARBITRATION_POLICIES",
    "ArbitrationPolicy",
    "FairShareArbitration",
    "FifoArbitration",
    "ServingSummary",
    "StrictPriorityArbitration",
    "TenantShare",
    "WorkflowHandle",
    "WorkflowManager",
    "create_arbitration",
    "jain_index",
]
