"""Simulated funcX-style endpoints.

An endpoint represents one computing resource (cluster) integrated into the
federated fabric.  It elastically manages a pool of workers, queues the tasks
dispatched to it, executes them (in simulation: for a sampled duration scaled
by the cluster's hardware speed), and reports status snapshots.

The endpoint reproduces the behaviours UniFaaS depends on:

* **elasticity** — more workers are provisioned (in node-sized units, after a
  batch-queue delay) when tasks outnumber workers, and idle workers are
  released after an idle interval (§IV-H, Fig. 7);
* **dynamic capacity** — scheduled capacity changes model other users and
  downtimes taking resources away or returning them (§VI-B, Figs. 12–13);
* **failure injection** — tasks can fail with a configurable probability to
  exercise the fault-tolerance path (§IV-G);
* **lifecycle dynamics** — an endpoint can :meth:`crash` (failing its queued
  and running tasks) and later :meth:`rejoin` with a fresh, cold worker pool,
  and tasks starting inside a cold-start window pay a startup penalty.  The
  scenario subsystem drives these to model endpoints leaving and joining the
  federation mid-workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from collections import deque

import numpy as np

from repro.core.exceptions import EndpointError
from repro.faas.types import EndpointStatus, TaskExecutionRecord, TaskExecutionRequest
from repro.sim.hardware import ClusterSpec
from repro.sim.kernel import EventHandle, SimulationKernel

__all__ = ["CapacityChange", "SimulatedEndpoint"]

CompletionCallback = Callable[[TaskExecutionRecord], None]

#: Seconds between two checks of an auto-scaling endpoint for idle workers.
_SCALE_CHECK_INTERVAL_S = 10.0


@dataclass(frozen=True)
class CapacityChange:
    """A scheduled change of an endpoint's available capacity.

    ``delta_workers`` is positive when resources are added (e.g. another
    user's allocation ends) and negative when they are taken away.
    """

    at_time_s: float
    delta_workers: int

    def __post_init__(self) -> None:
        if self.at_time_s < 0:
            raise ValueError("at_time_s must be non-negative")
        if self.delta_workers == 0:
            raise ValueError("delta_workers must be non-zero")


@dataclass
class _RunningTask:
    request: TaskExecutionRequest
    submitted_at: float
    started_at: float
    worker_id: str
    #: Kernel event that will complete the task; cancelled by a crash.
    finish_handle: Optional[EventHandle] = field(init=False, default=None)


class SimulatedEndpoint:
    """Discrete-event model of a funcX endpoint deployed on one cluster.

    ``speed_factor`` is the cluster's relative per-core speed; every
    execution's sampled duration is divided by it.  It is a plain attribute,
    as on :class:`~repro.faas.local.LocalEndpoint`, copied at construction
    from the frozen :class:`ClusterSpec` rather than derived per execution.
    """

    def __init__(
        self,
        name: str,
        cluster: ClusterSpec,
        kernel: SimulationKernel,
        *,
        rng: Optional[np.random.Generator] = None,
        initial_workers: int = 0,
        max_workers: Optional[int] = None,
        auto_scale: bool = True,
        idle_shutdown_s: float = 30.0,
        execution_overhead_s: float = 0.0,
        failure_rate: float = 0.0,
        duration_jitter: float = 0.0,
        cold_start_penalty_s: float = 0.0,
    ) -> None:
        if initial_workers < 0:
            raise EndpointError(f"initial_workers must be non-negative, got {initial_workers}")
        self.name = name
        self.cluster = cluster
        self.speed_factor = cluster.speed_factor
        self.kernel = kernel
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.max_workers = max_workers if max_workers is not None else cluster.max_workers
        if self.max_workers <= 0:
            raise EndpointError("max_workers must be positive")
        if initial_workers > self.max_workers:
            raise EndpointError(
                f"initial_workers ({initial_workers}) exceeds max_workers ({self.max_workers})"
            )
        self.auto_scale = auto_scale
        self.idle_shutdown_s = idle_shutdown_s
        self.execution_overhead_s = execution_overhead_s
        self.failure_rate = failure_rate
        self.duration_jitter = duration_jitter
        #: Extra seconds a task pays when it starts inside a cold window.
        self.cold_start_penalty_s = cold_start_penalty_s

        # Worker accounting.  Workers are modelled as counters; individual
        # worker identities only matter for execution records.
        self._active_workers = initial_workers
        self._busy_workers = 0
        self._provisioning_workers = 0
        self._pending_removals = 0

        # Lifecycle dynamics.
        self._online = True
        self._cold_until = 0.0
        self.crash_count = 0
        #: Bumped by every crash; provisioning batches carry the epoch they
        #: were requested in, so allocations from before a crash cannot land.
        self._lifecycle_epoch = 0

        self._queue: Deque[tuple[TaskExecutionRequest, float]] = deque()
        self._running: Dict[str, _RunningTask] = {}
        self._completion_callbacks: List[CompletionCallback] = []

        self._last_activity_at = kernel.clock.now
        self._worker_seq = 0

        # Statistics used by the metrics layer and tests.
        self.completed_count = 0
        self.failed_count = 0
        self.busy_core_seconds = 0.0

        if auto_scale:
            # Daemon: idle-pool housekeeping must not keep the simulation alive.
            kernel.schedule_periodic(
                _SCALE_CHECK_INTERVAL_S, self._idle_scale_in_check, daemon=True
            )

    # ------------------------------------------------------------ properties
    @property
    def active_workers(self) -> int:
        """Workers currently provisioned (busy + idle)."""
        return self._active_workers

    @property
    def busy_workers(self) -> int:
        return self._busy_workers

    @property
    def idle_workers(self) -> int:
        return self._active_workers - self._busy_workers

    @property
    def queued_tasks(self) -> int:
        """Tasks dispatched to this endpoint but not yet running."""
        return len(self._queue)

    @property
    def online(self) -> bool:
        return self._online

    @property
    def cold(self) -> bool:
        """True while tasks starting here pay the cold-start penalty."""
        return self.kernel.clock.now < self._cold_until

    @property
    def utilization(self) -> float:
        """Fraction of provisioned workers currently busy."""
        if self._active_workers == 0:
            return 0.0
        return self._busy_workers / self._active_workers

    # --------------------------------------------------------------- control
    def add_completion_callback(self, callback: CompletionCallback) -> None:
        self._completion_callbacks.append(callback)

    def status(self) -> EndpointStatus:
        """Ground-truth status snapshot (the service caches these)."""
        hw = self.cluster.hardware
        return EndpointStatus(
            endpoint=self.name,
            online=self._online,
            active_workers=self._active_workers,
            busy_workers=self._busy_workers,
            idle_workers=self.idle_workers,
            pending_tasks=len(self._queue),
            max_workers=self.max_workers,
            cores_per_node=hw.cores_per_node,
            cpu_freq_ghz=hw.cpu_freq_ghz,
            ram_gb=hw.ram_gb,
            as_of=self.kernel.clock.now,
        )

    # ------------------------------------------------------------ submission
    def submit(self, request: TaskExecutionRequest, submitted_at: Optional[float] = None) -> None:
        """Accept a task dispatched to this endpoint.

        Submissions to an offline (crashed) endpoint fail immediately: the
        resulting failure record flows back through the service so the
        client's fault-tolerance ladder (§IV-G) can reassign the task.
        """
        if request.sim_duration_s is None:
            raise EndpointError(
                f"simulated endpoint {self.name} received a request without sim_duration_s"
            )
        when = self.kernel.clock.now if submitted_at is None else submitted_at
        if not self._online:
            self._fail_request(request, when, error="endpoint offline")
            return
        self._queue.append((request, when))
        self._last_activity_at = self.kernel.clock.now
        if self.auto_scale:
            self._maybe_scale_out()
        self._start_queued_tasks()

    # --------------------------------------------------------------- scaling
    def request_workers(self, count: int) -> int:
        """Provision up to ``count`` additional workers (node-granular).

        Returns the number of workers actually requested; provisioning
        completes after the cluster's batch-queue delay.
        """
        if count <= 0 or not self._online:
            return 0
        headroom = self.max_workers - (
            self._active_workers + self._provisioning_workers
        )
        if headroom <= 0:
            return 0
        per_node = self.cluster.workers_per_node
        nodes = max(1, -(-min(count, headroom) // per_node))  # ceil division
        workers = min(nodes * per_node, headroom)
        if workers <= 0:
            return 0
        self._provisioning_workers += workers
        delay = self._sample_queue_delay()
        self.kernel.schedule(delay, self._provision_arrived, workers, self._lifecycle_epoch)
        return workers

    def release_idle_workers(self, count: Optional[int] = None) -> int:
        """Immediately release up to ``count`` idle workers (all if ``None``)."""
        releasable = self.idle_workers
        to_release = releasable if count is None else min(count, releasable)
        if to_release <= 0:
            return 0
        self._active_workers -= to_release
        return to_release

    def apply_capacity_change(self, delta_workers: int) -> None:
        """Apply a capacity change right now (used by the schedule below)."""
        if not self._online:
            # The change addressed an endpoint process that has since died;
            # like in-flight provisioning, it is lost with the crash.
            return
        if delta_workers > 0:
            self.max_workers = max(self.max_workers, self._active_workers + delta_workers)
            self._active_workers += delta_workers
            self._start_queued_tasks()
        else:
            removal = -delta_workers
            self.max_workers = max(1, self.max_workers - removal)
            idle_removed = self.release_idle_workers(removal)
            # Busy workers drain: they finish their current task and are then
            # retired instead of returning to the idle pool.
            self._pending_removals += removal - idle_removed

    def set_capacity_schedule(self, changes: List[CapacityChange]) -> None:
        """Schedule future capacity changes on the simulation kernel."""
        for change in changes:
            self.kernel.schedule_at(
                change.at_time_s, self.apply_capacity_change, change.delta_workers
            )

    # ------------------------------------------------------------- lifecycle
    def crash(self) -> int:
        """Go offline abruptly, as a real endpoint process dying would.

        Every queued and running task fails immediately (their failure
        records flow back through the service's result path), the worker
        pool is lost, and in-flight provisioning is voided.  Returns the
        number of tasks the crash failed.
        """
        if not self._online:
            return 0
        self._online = False
        self.crash_count += 1
        self._lifecycle_epoch += 1
        now = self.kernel.clock.now
        lost = 0
        for running in list(self._running.values()):
            if running.finish_handle is not None:
                running.finish_handle.cancel()
            self._fail_request(running.request, running.submitted_at,
                               started_at=running.started_at, error="endpoint crashed")
            lost += 1
        self._running.clear()
        while self._queue:
            request, submitted_at = self._queue.popleft()
            self._fail_request(request, submitted_at, error="endpoint crashed")
            lost += 1
        self._active_workers = 0
        self._busy_workers = 0
        self._provisioning_workers = 0
        self._pending_removals = 0
        self._last_activity_at = now
        return lost

    def rejoin(self, workers: Optional[int] = None) -> None:
        """Come back online with a fresh pool of ``workers`` cold workers."""
        if self._online:
            return
        self._online = True
        grant = self.max_workers if workers is None else min(workers, self.max_workers)
        self._active_workers = max(0, grant)
        self._busy_workers = 0
        self._last_activity_at = self.kernel.clock.now
        if self.cold_start_penalty_s > 0:
            # A rejoined pool is cold until its first tasks have warmed it up.
            self.begin_cold_window(self.cold_start_penalty_s * 10.0)
        self._start_queued_tasks()

    def begin_cold_window(self, duration_s: float, penalty_s: Optional[float] = None) -> None:
        """Tasks starting within ``duration_s`` from now pay the cold penalty."""
        if penalty_s is not None:
            self.cold_start_penalty_s = penalty_s
        self._cold_until = max(self._cold_until, self.kernel.clock.now + duration_s)

    # -------------------------------------------------------------- internal
    def _sample_queue_delay(self) -> float:
        spec = self.cluster
        if spec.queue_delay_mean_s <= 0:
            return 0.0
        delay = self.rng.normal(spec.queue_delay_mean_s, spec.queue_delay_std_s)
        return float(max(0.0, delay))

    def _provision_arrived(self, workers: int, epoch: int = 0) -> None:
        if epoch != self._lifecycle_epoch:
            # The endpoint crashed after this batch was requested (even if it
            # has since rejoined): the allocation died with the old process.
            return
        self._provisioning_workers = max(0, self._provisioning_workers - workers)
        if not self._online:
            return
        grant = min(workers, self.max_workers - self._active_workers)
        if grant > 0:
            self._active_workers += grant
            self._start_queued_tasks()

    def _maybe_scale_out(self) -> None:
        demand = len(self._queue) - self.idle_workers - self._provisioning_workers
        if demand > 0:
            self.request_workers(demand)

    def _idle_scale_in_check(self) -> None:
        if not self.auto_scale:
            return
        if self._queue or self._busy_workers:
            return
        if self.idle_workers == 0:
            return
        if self.kernel.clock.now - self._last_activity_at >= self.idle_shutdown_s:
            self.release_idle_workers()

    def _start_queued_tasks(self) -> None:
        if not self._online:
            return
        while self._queue:
            request, submitted_at = self._queue[0]
            if self.idle_workers < request.cores:
                break
            self._queue.popleft()
            self._busy_workers += request.cores
            self._worker_seq += 1
            worker_id = f"{self.name}-worker-{self._worker_seq}"
            started_at = self.kernel.clock.now
            running = _RunningTask(
                request=request,
                submitted_at=submitted_at,
                started_at=started_at,
                worker_id=worker_id,
            )
            self._running[request.task_id] = running
            duration = self._execution_duration(request)
            running.finish_handle = self.kernel.schedule(
                duration, self._finish_task, request.task_id
            )

    def _execution_duration(self, request: TaskExecutionRequest) -> float:
        duration = request.sim_duration_s / self.speed_factor
        if self.duration_jitter > 0:
            duration *= float(self.rng.lognormal(0.0, self.duration_jitter))
        duration = self.execution_overhead_s + duration
        if self.cold_start_penalty_s > 0 and self.cold:
            duration += self.cold_start_penalty_s
        return duration

    def _fail_request(
        self,
        request: TaskExecutionRequest,
        submitted_at: float,
        *,
        started_at: Optional[float] = None,
        error: str = "endpoint offline",
    ) -> None:
        """Emit a failure record for a task the endpoint could not finish."""
        now = self.kernel.clock.now
        self.failed_count += 1
        hw = self.cluster.hardware
        record = TaskExecutionRecord(
            task_id=request.task_id,
            endpoint=self.name,
            function_name=request.function_name,
            success=False,
            submitted_at=submitted_at,
            started_at=now if started_at is None else started_at,
            completed_at=now,
            input_mb=request.input_mb,
            output_mb=0.0,
            result=None,
            error=error,
            worker_id=None,
            cores_per_node=hw.cores_per_node,
            cpu_freq_ghz=hw.cpu_freq_ghz,
            ram_gb=hw.ram_gb,
        )
        for callback in self._completion_callbacks:
            callback(record)

    def _finish_task(self, task_id: str) -> None:
        running = self._running.pop(task_id)
        request = running.request
        self._busy_workers -= request.cores
        now = self.kernel.clock.now
        self._last_activity_at = now

        # Retire workers earmarked for removal by a capacity decrease.
        if self._pending_removals > 0:
            retire = min(self._pending_removals, request.cores, self.idle_workers)
            self._active_workers -= retire
            self._pending_removals -= retire

        # Per-function poison (SimProfile.failure_rate) combines with the
        # endpoint-level injection rate; the RNG is only consumed when some
        # rate is set, so zero-rate runs keep their exact random streams.
        rate = max(self.failure_rate, request.sim_failure_rate)
        failed = rate > 0 and bool(self.rng.random() < rate)
        self.busy_core_seconds += (now - running.started_at) * request.cores
        if failed:
            self.failed_count += 1
        else:
            self.completed_count += 1

        hw = self.cluster.hardware
        record = TaskExecutionRecord(
            task_id=task_id,
            endpoint=self.name,
            function_name=request.function_name,
            success=not failed,
            submitted_at=running.submitted_at,
            started_at=running.started_at,
            completed_at=now,
            input_mb=request.input_mb,
            output_mb=request.sim_output_mb if not failed else 0.0,
            result=None,
            error="injected task failure" if failed else None,
            worker_id=running.worker_id,
            cores_per_node=hw.cores_per_node,
            cpu_freq_ghz=hw.cpu_freq_ghz,
            ram_gb=hw.ram_gb,
        )
        for callback in self._completion_callbacks:
            callback(record)
        self._start_queued_tasks()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedEndpoint({self.name!r}, active={self._active_workers}, "
            f"busy={self._busy_workers}, queued={len(self._queue)})"
        )
