"""Federated FaaS execution fabric (the funcX substrate).

The paper builds UniFaaS on funcX: endpoints deployed on arbitrary computing
resources execute function tasks in a FaaS manner, and a cloud-hosted web
service brokers task submission, result retrieval and (periodically updated)
endpoint status.  None of that infrastructure is available offline, so this
package implements the substrate:

* :mod:`repro.faas.types` — execution requests/records and endpoint status
  snapshots exchanged between layers.
* :mod:`repro.faas.endpoint` — simulated endpoints with elastic worker pools,
  batch-queue provisioning delays and dynamic capacity schedules.
* :mod:`repro.faas.service` — the web-service facade with *stale* status
  (refreshed only periodically, motivating UniFaaS's local mocking).
* :mod:`repro.faas.local` — endpoints that really execute Python functions in
  thread pools (local mode used by the examples).
* :mod:`repro.faas.fabric` — the :class:`ExecutionFabric` abstraction that
  the UniFaaS engine programs against; its simulated fabric is the client
  side of the service (batched submission, results by callback).
"""

from repro.faas.types import (
    EndpointStatus,
    ServiceLatencyModel,
    TaskExecutionRecord,
    TaskExecutionRequest,
)
from repro.faas.endpoint import CapacityChange, SimulatedEndpoint
from repro.faas.service import FederatedFaaSService
from repro.faas.fabric import ExecutionFabric, SimulatedFabric
from repro.faas.local import LocalEndpoint, LocalFabric

__all__ = [
    "CapacityChange",
    "EndpointStatus",
    "ExecutionFabric",
    "FederatedFaaSService",
    "LocalEndpoint",
    "LocalFabric",
    "ServiceLatencyModel",
    "SimulatedEndpoint",
    "SimulatedFabric",
    "TaskExecutionRecord",
    "TaskExecutionRequest",
]
