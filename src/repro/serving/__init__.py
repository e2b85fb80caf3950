"""The federation: N workflows over one shared substrate, one run loop.

:class:`~repro.serving.federation.Federation` builds the shared substrate
once — fabric and clock, control bus, monitors, profilers, data plane,
scaler, placement service — and lists the live tenant engines;
:class:`~repro.serving.manager.WorkflowManager` keeps graphs, schedulers,
metrics and event buses per workflow and drives them all from the one run
loop (the single-workflow :class:`~repro.core.client.UniFaaSClient` is a
one-tenant manager); an
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
from repro.serving.federation import Federation
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
    "Federation",
    "FifoArbitration",
    "ServingSummary",
    "StrictPriorityArbitration",
    "TenantShare",
    "WorkflowHandle",
    "WorkflowManager",
    "create_arbitration",
    "jain_index",
]
