"""The data-plane subsystem: the system's one data layer (§IV-E).

* :class:`~repro.dataplane.plane.DataPlane` — stages task inputs, retries
  failed transfers and keeps the replica catalog and transfer-volume
  counters, composing the components below;
* :class:`~repro.dataplane.replica_store.ReplicaStore` — per-endpoint storage
  budgets, pinning for in-flight task inputs, pluggable eviction (LRU and
  size-aware cost/benefit);
* :class:`~repro.dataplane.transfer_scheduler.TransferScheduler` — per-link
  priority queues with demand/prefetch service classes, cross-ticket
  coalescing and cancellation;
* :class:`~repro.dataplane.prefetch.Prefetcher` — pipelines staging of
  ready-soon tasks' inputs behind their predecessors' execution.

``DataPlane(published=...)`` selects the plane's policy: ``--no-dataplane``
runs it under the paper's published §IV-E policy (an unbounded store, FIFO
links, no prefetch).  The plane also names the replicas a staging
prediction prices (``DataPlane.staging_sources``), so every scheduler reads
the policy from the plane, never from the config.
"""

from repro.dataplane.plane import DataPlane
from repro.dataplane.prefetch import Prefetcher
from repro.dataplane.replica_store import (
    CostBenefitEviction,
    EvictionPolicy,
    LRUEviction,
    Replica,
    ReplicaStore,
    create_eviction_policy,
)
from repro.dataplane.transfer_scheduler import (
    DEMAND,
    PREFETCH,
    TransferJob,
    TransferScheduler,
)

__all__ = [
    "CostBenefitEviction",
    "DEMAND",
    "DataPlane",
    "EvictionPolicy",
    "LRUEviction",
    "PREFETCH",
    "Prefetcher",
    "Replica",
    "ReplicaStore",
    "TransferJob",
    "TransferScheduler",
    "create_eviction_policy",
]
