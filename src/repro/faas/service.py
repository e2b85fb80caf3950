"""Cloud-hosted federated FaaS service facade.

The service is the broker between clients and endpoints, mirroring the funcX
web service the paper builds on:

* task submission is routed to the requested endpoint after a small
  submission latency plus the WAN dispatch latency;
* results become visible to clients only after the result-polling latency;
* endpoint status is served from a cache that refreshes at most every
  ``status_refresh_interval_s`` — the staleness that motivates UniFaaS's
  local mocking mechanism (§IV-B).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import EndpointError
from repro.faas.endpoint import SimulatedEndpoint
from repro.faas.types import EndpointStatus, ServiceLatencyModel, TaskExecutionRecord, TaskExecutionRequest
from repro.sim.kernel import SimulationKernel

__all__ = ["FederatedFaaSService"]

ResultCallback = Callable[[TaskExecutionRecord], None]


class FederatedFaaSService:
    """Registry + broker for simulated endpoints."""

    def __init__(
        self,
        kernel: SimulationKernel,
        latency: Optional[ServiceLatencyModel] = None,
    ) -> None:
        self.kernel = kernel
        self.latency = latency or ServiceLatencyModel()
        self._endpoints: Dict[str, SimulatedEndpoint] = {}
        self._status_cache: Dict[str, EndpointStatus] = {}
        self._result_callbacks: List[ResultCallback] = []
        self._uuid_counter = itertools.count(1)
        #: Cumulative count of tasks routed through the service.
        self.submitted_count = 0

    # ---------------------------------------------------------- registration
    def register_endpoint(self, endpoint: SimulatedEndpoint) -> str:
        """Register an endpoint and return its UUID-style identifier."""
        if endpoint.name in self._endpoints:
            raise EndpointError(f"endpoint {endpoint.name!r} already registered")
        self._endpoints[endpoint.name] = endpoint
        uuid = f"ep-{next(self._uuid_counter):04d}-{endpoint.name}"
        endpoint.add_completion_callback(self._on_endpoint_completion)
        self._status_cache[endpoint.name] = endpoint.status()
        return uuid

    def endpoint_names(self) -> List[str]:
        return list(self._endpoints)

    def endpoint(self, name: str) -> SimulatedEndpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise EndpointError(f"unknown endpoint {name!r}") from None

    def worker_counts(self) -> Dict[str, Tuple[int, int]]:
        """``{endpoint: (active workers, busy workers)}``, read off the
        endpoints' own counters (ground truth, not the status cache)."""
        counts: Dict[str, Tuple[int, int]] = {}
        for name, endpoint in self._endpoints.items():
            counts[name] = (endpoint._active_workers, endpoint._busy_workers)
        return counts

    # ------------------------------------------------------------ submission
    def submit(self, endpoint_name: str, request: TaskExecutionRequest) -> None:
        """Submit a task for execution on ``endpoint_name``.

        The request reaches the endpoint after the submission latency (client
        to service) plus the dispatch latency (service to endpoint over the
        WAN).
        """
        # endpoint(name), inlined: this runs once per submitted task.
        try:
            endpoint = self._endpoints[endpoint_name]
        except KeyError:
            raise EndpointError(f"unknown endpoint {endpoint_name!r}") from None
        self.submitted_count += 1
        submitted_at = self.kernel.clock.now
        delay = self.latency.submit_latency_s + self.latency.dispatch_latency_s
        self.kernel.schedule(delay, endpoint.submit, request, submitted_at)

    def submit_batch(self, endpoint_name: str, requests: List[TaskExecutionRequest]) -> None:
        """Submit several tasks in one call, amortising the submission latency."""
        endpoint = self.endpoint(endpoint_name)
        self.submitted_count += len(requests)
        submitted_at = self.kernel.clock.now
        delay = self.latency.submit_latency_s + self.latency.dispatch_latency_s

        def deliver() -> None:
            for request in requests:
                endpoint.submit(request, submitted_at)

        self.kernel.schedule(delay, deliver)

    # --------------------------------------------------------------- results
    def add_result_callback(self, callback: ResultCallback) -> None:
        """Register a push-style callback for results arriving at the client."""
        self._result_callbacks.append(callback)

    def _on_endpoint_completion(self, record: TaskExecutionRecord) -> None:
        # The result becomes visible to the client after the polling latency.
        self.kernel.schedule(self.latency.result_poll_latency_s, self._deliver_result, record)

    def _deliver_result(self, record: TaskExecutionRecord) -> None:
        for callback in self._result_callbacks:
            callback(record)

    # ---------------------------------------------------------------- status
    def endpoint_status(self, name: str, force_refresh: bool = False) -> EndpointStatus:
        """Return the (possibly stale) cached status of an endpoint.

        The cache entry is refreshed only when it is older than the service's
        ``status_refresh_interval_s`` or when ``force_refresh`` is set,
        reproducing funcX's periodically updated endpoint state.
        """
        endpoint = self.endpoint(name)
        cached = self._status_cache.get(name)
        age = self.kernel.clock.now - cached.as_of if cached is not None else float("inf")
        if force_refresh or cached is None or age >= self.latency.status_refresh_interval_s:
            cached = endpoint.status()
            self._status_cache[name] = cached
        return cached

    def set_status_refresh_interval(self, interval_s: float) -> None:
        """Change how stale the served endpoint statuses may get.

        Scenario dynamics use this to model staleness spikes: an overloaded
        or rate-limited web service stretching the window during which
        clients see outdated capacity (§IV-B's motivating failure mode).
        """
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.latency = replace(self.latency, status_refresh_interval_s=interval_s)
