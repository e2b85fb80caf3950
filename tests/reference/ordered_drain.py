"""The ordered-drain arbitration policies as they were before the early stop.

``ordered_drain`` is ``ArbitrationPolicy._ordered_drain`` as first written:
every tenant, in order, walks ``sorted(demand)`` against a copy of the whole
free vector, also after the capacity is spent; the three ``allocate``
functions sort the tenants on every call.  The product walks the free
endpoints once, stops granting when none is left and sorts a share list
once; ``tests/serving/test_ordered_drain_reference.py`` holds it to this
module with ``==`` on every allocation.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Mapping

from repro.serving.arbitration import Allocation, TenantShare

__all__ = ["edf", "fifo", "ordered_drain", "priority"]


def ordered_drain(
    free: Mapping[str, int],
    demands: Mapping[str, Mapping[str, int]],
    ordered: List[TenantShare],
) -> Allocation:
    """Give each workflow, in order, everything it wants that is left."""
    remaining = {endpoint: max(0, count) for endpoint, count in free.items()}
    allocation: Allocation = {}
    for tenant in ordered:
        demand = demands.get(tenant.workflow_id, {})
        slice_: Dict[str, int] = {}
        for endpoint in sorted(demand):
            granted = min(demand[endpoint], remaining.get(endpoint, 0))
            if granted > 0:
                slice_[endpoint] = granted
                remaining[endpoint] -= granted
        allocation[tenant.workflow_id] = slice_
    return allocation


def fifo(free, demands, tenants) -> Allocation:
    ordered = sorted(tenants, key=attrgetter("arrival_index", "workflow_id"))
    return ordered_drain(free, demands, ordered)


def priority(free, demands, tenants) -> Allocation:
    ordered = sorted(tenants, key=lambda t: (-t.priority, t.arrival_index, t.workflow_id))
    return ordered_drain(free, demands, ordered)


def edf(free, demands, tenants) -> Allocation:
    ordered = sorted(tenants, key=attrgetter("deadline", "arrival_index", "workflow_id"))
    return ordered_drain(free, demands, ordered)
