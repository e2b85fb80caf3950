"""Execution fabric abstraction used by the UniFaaS engine.

The orchestration engine (:class:`repro.core.client.UniFaaSClient`) programs
against :class:`ExecutionFabric`, which hides whether tasks run on the
discrete-event simulation substrate (:class:`SimulatedFabric`) or on real
thread-pool endpoints on the local machine
(:class:`repro.faas.local.LocalFabric`).  :class:`SimulatedFabric` is also
the client side of the federated FaaS service (§IV-F): it batches
submissions per endpoint (§IV-H) and receives results through the service's
result callbacks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dag import Task
from repro.core.exceptions import EndpointError
from repro.faas.endpoint import SimulatedEndpoint
from repro.faas.service import FederatedFaaSService
from repro.faas.types import EndpointStatus, TaskExecutionRecord, TaskExecutionRequest
from repro.sim.kernel import Clock, SimulationKernel

__all__ = ["ExecutionFabric", "SimulatedFabric"]


class ExecutionFabric(ABC):
    """Interface between the orchestration engine and task execution."""

    #: Time source shared with the engine, data manager and monitors.
    clock: Clock

    # ------------------------------------------------------------- topology
    @abstractmethod
    def endpoint_names(self) -> List[str]:
        """Names of the endpoints available for execution."""

    @abstractmethod
    def endpoint_status(self, name: str, force_refresh: bool = False) -> EndpointStatus:
        """Service-side (possibly stale) status of an endpoint."""

    @abstractmethod
    def true_status(self, name: str) -> EndpointStatus:
        """Ground-truth endpoint status (metrics/diagnostics only)."""

    @abstractmethod
    def speed_factor(self, name: str) -> float:
        """Relative hardware speed of an endpoint (1.0 = reference)."""

    # ------------------------------------------------------------ execution
    @abstractmethod
    def build_request(self, task: Task) -> TaskExecutionRequest:
        """Create the execution request for ``task``; a fabric that runs the
        callable resolves the task's future arguments here."""

    @abstractmethod
    def submit(self, endpoint_name: str, request: TaskExecutionRequest) -> None:
        """Dispatch a request to an endpoint."""

    def flush(self) -> None:
        """Force any batched submissions out (no-op by default)."""

    def shutdown(self) -> None:
        """Release fabric resources (worker pools, ...); no-op by default."""

    @abstractmethod
    def process(self) -> List[TaskExecutionRecord]:
        """Advance the fabric and return newly completed execution records."""

    @abstractmethod
    def pending_work(self) -> bool:
        """True while the fabric still has queued events or running tasks."""

    # -------------------------------------------------------------- scaling
    def request_workers(self, name: str, count: int) -> int:
        """Ask an endpoint to provision more workers (0 if unsupported)."""
        return 0

    def release_idle_workers(self, name: str, count: Optional[int] = None) -> int:
        """Ask an endpoint to release idle workers (0 if unsupported)."""
        return 0

    # -------------------------------------------------------------- metrics
    def worker_counts(self) -> Dict[str, Tuple[int, int]]:
        """``{endpoint: (active workers, busy workers)}`` (ground truth), what
        the metrics collector samples."""
        counts: Dict[str, Tuple[int, int]] = {}
        for name in self.endpoint_names():
            status = self.true_status(name)
            counts[name] = (status.active_workers, status.busy_workers)
        return counts


class SimulatedFabric(ExecutionFabric):
    """Fabric backed by the discrete-event simulation substrate."""

    def __init__(
        self,
        kernel: SimulationKernel,
        service: FederatedFaaSService,
        *,
        batch_size: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.kernel = kernel
        self.clock = kernel.clock
        self.service = service
        #: Requests per endpoint held client-side until the batch fills up or
        #: :meth:`flush` sends it (one service round-trip per batch).
        self.batch_size = batch_size
        self._pending: Dict[str, List[TaskExecutionRequest]] = defaultdict(list)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._completions: List[TaskExecutionRecord] = []
        self._outstanding = 0
        service.add_result_callback(self._on_result)

    # ------------------------------------------------------------- topology
    def endpoint_names(self) -> List[str]:
        return self.service.endpoint_names()

    def endpoint(self, name: str) -> SimulatedEndpoint:
        return self.service.endpoint(name)

    def endpoint_status(self, name: str, force_refresh: bool = False) -> EndpointStatus:
        return self.service.endpoint_status(name, force_refresh=force_refresh)

    def true_status(self, name: str) -> EndpointStatus:
        return self.service.endpoint(name).status()

    def speed_factor(self, name: str) -> float:
        return self.service.endpoint(name).speed_factor

    def worker_counts(self) -> Dict[str, Tuple[int, int]]:
        # The endpoints' counters as they are: a metrics sample builds no
        # status snapshot.
        return self.service.worker_counts()

    # ------------------------------------------------------------ execution
    def build_request(self, task: Task) -> TaskExecutionRequest:
        profile = task.sim_profile
        if profile is None:
            raise EndpointError(
                f"function {task.name!r} has no SimProfile; simulation mode "
                "needs one to sample the task's duration (local mode does not)"
            )
        input_mb = task.input_size_mb
        jitter_draw = 1.0
        if profile.jitter > 0:
            jitter_draw = float(self._rng.lognormal(0.0, profile.jitter))
        duration = profile.duration_on(1.0, input_mb=input_mb, jitter_draw=jitter_draw)
        return TaskExecutionRequest(
            task_id=task.task_id,
            function_name=task.name,
            cores=profile.cores,
            input_mb=input_mb,
            sim_duration_s=duration,
            sim_output_mb=profile.output_base_mb,
            sim_failure_rate=profile.failure_rate,
        )

    def submit(self, endpoint_name: str, request: TaskExecutionRequest) -> None:
        """Queue a request; it is sent when the endpoint's batch fills up."""
        if endpoint_name not in self.service._endpoints:
            raise EndpointError(f"unknown endpoint {endpoint_name!r}")
        self._outstanding += 1
        batch = self._pending[endpoint_name]
        batch.append(request)
        if len(batch) >= self.batch_size:
            self._send(endpoint_name)

    def flush(self) -> None:
        """Send every queued request now."""
        for endpoint_name in list(self._pending):
            self._send(endpoint_name)

    def _send(self, endpoint_name: str) -> None:
        # One service round-trip per batch; a lone request as a plain submit.
        batch = self._pending.pop(endpoint_name)
        if len(batch) == 1:
            self.service.submit(endpoint_name, batch[0])
        else:
            self.service.submit_batch(endpoint_name, batch)

    def process(self) -> List[TaskExecutionRecord]:
        kernel = self.kernel
        if kernel._non_daemon_pending == 0 and self._pending:
            # Batched submissions must not wait for a full batch while the
            # kernel runs out of other events.
            self.flush()
        # Quiescent otherwise: only daemon housekeeping remains in the queue.
        # Stepping then would warp the clock across the idle gap before the
        # pump has had a chance to dispatch work (most visibly at run start,
        # when nothing is scheduled yet).
        if kernel._non_daemon_pending or self._outstanding:
            kernel.step()
        completions = self._completions
        self._completions = []
        return completions

    def pending_work(self) -> bool:
        return (
            self.kernel._non_daemon_pending > 0
            or self._outstanding > 0
            or bool(self._pending)
        )

    def _on_result(self, record: TaskExecutionRecord) -> None:
        self._outstanding = max(0, self._outstanding - 1)
        self._completions.append(record)

    # -------------------------------------------------------------- scaling
    def request_workers(self, name: str, count: int) -> int:
        return self.service.endpoint(name).request_workers(count)

    def release_idle_workers(self, name: str, count: Optional[int] = None) -> int:
        return self.service.endpoint(name).release_idle_workers(count)
