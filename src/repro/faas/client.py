"""Client-side interface to the federated FaaS service.

UniFaaS's task executor talks to the service exclusively through this client
(§IV-F): it wraps task submission (with batching, §IV-H) and endpoint-status
queries; results come back through the service's result callbacks.  Keeping
the client thin makes it obvious which latencies belong to the
client/service boundary (Fig. 5) and gives tests a single seam for failure
injection.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.faas.service import FederatedFaaSService
from repro.faas.types import EndpointStatus, TaskExecutionRequest

__all__ = ["FaaSClient"]


class FaaSClient:
    """Batched submit client for the federated FaaS service."""

    def __init__(self, service: FederatedFaaSService, batch_size: int = 64) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.service = service
        self.batch_size = batch_size
        self._pending: Dict[str, List[TaskExecutionRequest]] = defaultdict(list)
        #: Number of service round-trips performed for submissions.
        self.submit_calls = 0

    # ------------------------------------------------------------ submission
    def submit(self, endpoint_name: str, request: TaskExecutionRequest) -> None:
        """Queue a request; it is sent when the per-endpoint batch fills up."""
        batch = self._pending[endpoint_name]
        batch.append(request)
        if len(batch) >= self.batch_size:
            self._flush_endpoint(endpoint_name)

    def flush(self) -> None:
        """Send every queued request immediately."""
        for endpoint_name in list(self._pending):
            self._flush_endpoint(endpoint_name)

    def _flush_endpoint(self, endpoint_name: str) -> None:
        batch = self._pending.pop(endpoint_name, [])
        if not batch:
            return
        self.submit_calls += 1
        if len(batch) == 1:
            self.service.submit(endpoint_name, batch[0])
        else:
            self.service.submit_batch(endpoint_name, batch)

    @property
    def queued_requests(self) -> int:
        return sum(len(v) for v in self._pending.values())

    # ---------------------------------------------------------------- status
    def endpoint_status(self, name: str, force_refresh: bool = False) -> EndpointStatus:
        return self.service.endpoint_status(name, force_refresh=force_refresh)

    def all_statuses(self, force_refresh: bool = False) -> Dict[str, EndpointStatus]:
        return self.service.all_statuses(force_refresh=force_refresh)

    def endpoint_names(self) -> List[str]:
        return self.service.endpoint_names()
