"""Local (real-execution) endpoints and fabric.

This is the mode the examples use to demonstrate the programming model: the
decorated function bodies really execute, on thread-pool "endpoints" hosted
in the current process.  The orchestration engine sees exactly the same
:class:`~repro.faas.fabric.ExecutionFabric` interface as in simulation mode.
"""

from __future__ import annotations

import queue
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.core.dag import Task
from repro.core.exceptions import EndpointError, UniFaaSError
from repro.faas.fabric import ExecutionFabric
from repro.faas.types import EndpointStatus, TaskExecutionRecord, TaskExecutionRequest
from repro.sim.kernel import WallClock

__all__ = ["LocalEndpoint", "LocalFabric"]

#: How long one :meth:`LocalFabric.process` call waits for a first record (s).
_POLL_TIMEOUT_S = 0.02


class LocalEndpoint:
    """A pool of worker threads executing real Python functions."""

    def __init__(self, name: str, max_workers: int = 4, speed_factor: float = 1.0) -> None:
        if max_workers <= 0:
            raise EndpointError("max_workers must be positive")
        self.name = name
        self.max_workers = max_workers
        self.speed_factor = speed_factor
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=f"unifaas-{name}"
        )
        self._lock = threading.Lock()
        self._busy = 0
        self.completed_count = 0
        self.failed_count = 0

    # ---------------------------------------------------------------- status
    @property
    def busy_workers(self) -> int:
        with self._lock:
            return self._busy

    @property
    def active_workers(self) -> int:
        return self.max_workers

    @property
    def idle_workers(self) -> int:
        return max(0, self.max_workers - self.busy_workers)

    def status(self, now: float = 0.0) -> EndpointStatus:
        busy = self.busy_workers
        return EndpointStatus(
            endpoint=self.name,
            online=True,
            active_workers=self.max_workers,
            busy_workers=busy,
            idle_workers=self.max_workers - busy,
            pending_tasks=0,
            max_workers=self.max_workers,
            cores_per_node=self.max_workers,
            cpu_freq_ghz=1.0,
            ram_gb=1.0,
            as_of=now,
        )

    # ------------------------------------------------------------- execution
    def submit(
        self,
        request: TaskExecutionRequest,
        clock: WallClock,
        result_queue: "queue.Queue[TaskExecutionRecord]",
    ) -> None:
        if request.callable_ is None:
            raise EndpointError(
                f"local endpoint {self.name} received a request without a callable"
            )
        submitted_at = clock.now
        with self._lock:
            self._busy += 1

        def run() -> None:
            started_at = clock.now
            success = True
            result = None
            error: Optional[str] = None
            output_mb = 0.0
            try:
                result = request.callable_(*request.args, **request.kwargs)
                output_mb = float(getattr(result, "size_mb", 0.0) or 0.0)
            except Exception as exc:  # noqa: BLE001 - report any task failure
                success = False
                error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            completed_at = clock.now
            with self._lock:
                self._busy -= 1
                if success:
                    self.completed_count += 1
                else:
                    self.failed_count += 1
            record = TaskExecutionRecord(
                task_id=request.task_id,
                endpoint=self.name,
                function_name=request.function_name,
                success=success,
                submitted_at=submitted_at,
                started_at=started_at,
                completed_at=completed_at,
                input_mb=request.input_mb,
                output_mb=output_mb,
                result=result,
                error=error,
                worker_id=threading.current_thread().name,
                cores_per_node=self.max_workers,
            )
            result_queue.put(record)

        self._executor.submit(run)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


class LocalFabric(ExecutionFabric):
    """Fabric running tasks on :class:`LocalEndpoint` thread pools."""

    def __init__(self, endpoints: Optional[List[LocalEndpoint]] = None) -> None:
        self.clock = WallClock()
        self._endpoints: Dict[str, LocalEndpoint] = {}
        self._results: "queue.Queue[TaskExecutionRecord]" = queue.Queue()
        self._outstanding = 0
        self._lock = threading.Lock()
        for endpoint in endpoints or []:
            self.add_endpoint(endpoint)

    # ------------------------------------------------------------- topology
    def add_endpoint(self, endpoint: LocalEndpoint) -> None:
        if endpoint.name in self._endpoints:
            raise EndpointError(f"endpoint {endpoint.name!r} already registered")
        self._endpoints[endpoint.name] = endpoint

    def endpoint_names(self) -> List[str]:
        return list(self._endpoints)

    def endpoint(self, name: str) -> LocalEndpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise EndpointError(f"unknown endpoint {name!r}") from None

    def endpoint_status(self, name: str, force_refresh: bool = False) -> EndpointStatus:
        return self.endpoint(name).status(self.clock.now)

    def true_status(self, name: str) -> EndpointStatus:
        return self.endpoint_status(name)

    def speed_factor(self, name: str) -> float:
        return self.endpoint(name).speed_factor

    # ------------------------------------------------------------ execution
    def build_request(self, task: Task) -> TaskExecutionRequest:
        # The callable really runs here: its future arguments become their
        # results (passed through as they are when one cannot be resolved).
        try:
            args, kwargs = task.resolved_args()
        except UniFaaSError:
            args, kwargs = task.args, dict(task.kwargs)
        return TaskExecutionRequest(
            task_id=task.task_id,
            function_name=task.name,
            cores=task.cores,
            input_mb=task.input_size_mb,
            callable_=task.function.callable,
            args=args,
            kwargs=kwargs,
        )

    def submit(self, endpoint_name: str, request: TaskExecutionRequest) -> None:
        endpoint = self.endpoint(endpoint_name)
        with self._lock:
            self._outstanding += 1
        endpoint.submit(request, self.clock, self._results)

    def process(self) -> List[TaskExecutionRecord]:
        records: List[TaskExecutionRecord] = []
        try:
            records.append(self._results.get(timeout=_POLL_TIMEOUT_S))
        except queue.Empty:
            return records
        # Drain whatever else is immediately available.
        while True:
            try:
                records.append(self._results.get_nowait())
            except queue.Empty:
                break
        with self._lock:
            self._outstanding -= len(records)
        return records

    def pending_work(self) -> bool:
        with self._lock:
            return self._outstanding > 0

    def shutdown(self) -> None:
        for endpoint in self._endpoints.values():
            endpoint.shutdown()
