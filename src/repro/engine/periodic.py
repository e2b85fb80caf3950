"""Periodic coordinator — everything a workflow does on a cadence (§IV-B/D).

Independent timers, all driven by the engine clock so they behave
identically under the simulated and wall clocks:

* **endpoint sync** — re-synchronise the endpoint monitor's mocks with the
  (possibly stale) service view and announce
  :class:`~repro.engine.events.CapacityChanged`;
* **profiler refresh** — retrain the execution/transfer models on the
  observations streamed in since the last refresh;
* **placement re-solve** — let the global placement service refresh its
  facility-location plan when its cadence elapsed or dynamics invalidated
  the current generation (the service gates itself);
* **re-scheduling** — offer the not-yet-dispatched tasks back to the
  scheduler (DHA's task stealing, §IV-D);

plus the metrics sampler, which reads the per-endpoint pending counts
straight from the incremental :class:`~repro.engine.state.TaskIndex` instead
of re-scanning every undispatched task.  Elastic scaling (§IV-H) is a
federation-level cadence and lives in the run loop
(:meth:`~repro.serving.manager.WorkflowManager.scale_now`).

The run loop does not poll :meth:`PeriodicCoordinator.check` every round: the
coordinator publishes :attr:`~PeriodicCoordinator.due_at`, the earliest clock
time any of its timers can fire, and the loop calls ``check`` once the clock
reaches it (the minimum over its active tenants is the federation's one
cadence deadline).  ``check`` itself still tests every timer, so calling it
early or needlessly is a no-op.

Every timer starts at ``0.0``, not at the workflow's arrival.  A tenant
admitted at ``t >= profiler_update_interval_s`` therefore refits the shared
profilers on its very first check, whatever the other tenants just did: 338 of
the ``update_models`` calls of a 150-arrival open-loop stream are such
first-check refits.  Moving the refit to one federation-level cadence changes
refit *times*, hence predictions and event order, so it waits for the PR that
re-baselines the golden digests (ROADMAP item 2(c) / 3(b)).
"""

from __future__ import annotations

import time as _time
from math import isfinite
from typing import TYPE_CHECKING

from repro.core.dag import TaskState
from repro.engine.events import CapacityChanged, TaskPlaced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["PeriodicCoordinator"]

#: Undispatched states eligible for a re-scheduling pass.
_RESCHEDULABLE = (TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED)

#: ``due_at`` is set this much (relatively) before the first instant a timer's
#: own ``now - last >= interval`` test can pass, so rounding in ``last +
#: interval`` can only make the run loop call ``check`` early, never late.
_EARLY = 1e-9


class PeriodicCoordinator:
    """Runs the engine's periodic duties when their intervals elapse."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine
        self._last_profiler_update = 0.0
        self._last_endpoint_sync = 0.0
        self._last_reschedule = 0.0
        self._last_metrics_sample = 0.0
        #: Earliest clock time a timer above can fire (see the module
        #: docstring); re-derived whenever one of them is reset.
        self.due_at = 0.0
        #: Re-scheduling candidates cached against the undispatched-set epoch
        #: (membership changes bump it; targets and states are re-checked).
        self._resched_cache_epoch = -1
        self._resched_cache: list = []

    # ------------------------------------------------------------------ tick
    def check(self) -> None:
        engine = self._engine
        now = engine.clock.now()
        if now - self._last_endpoint_sync >= engine.config.endpoint_sync_interval_s:
            self._last_endpoint_sync = now
            engine.endpoint_monitor.synchronize()
            engine.bus.publish(CapacityChanged(time=now))
        if now - self._last_profiler_update >= engine.config.profiler_update_interval_s:
            self._last_profiler_update = now
            retrained = engine.execution_profiler.update_models()
            engine.transfer_profiler.update_models()
            if retrained and engine.context is not None:
                # Stale entries would be rejected lazily by their generation
                # stamp anyway; dropping them eagerly frees the memory.
                engine.context.invalidate_predictions()
        if engine.plan_service is not None:
            # Before re-scheduling: it steers by the plan, so a due re-solve
            # (cadence elapsed or generation invalidated) must land first.
            # The service itself gates on its own interval.
            engine.plan_service.maybe_resolve(now, engine)
        if (
            engine.scheduler.supports_rescheduling
            and now - self._last_reschedule >= engine.config.rescheduling_interval_s
        ):
            self._last_reschedule = now
            self.run_rescheduling()
        if now - self._last_metrics_sample >= engine.metrics.sample_interval_s:
            self.sample_metrics()
        config = engine.config
        due = min(
            self._last_endpoint_sync + config.endpoint_sync_interval_s,
            self._last_profiler_update + config.profiler_update_interval_s,
            self._last_metrics_sample + engine.metrics.sample_interval_s,
        )
        if engine.scheduler.supports_rescheduling:
            due = min(due, self._last_reschedule + config.rescheduling_interval_s)
        if engine.plan_service is not None:
            due = min(due, engine.plan_service.next_resolve_at())
        self.due_at = due - _EARLY * max(1.0, abs(due)) if isfinite(due) else due

    # ---------------------------------------------------------- re-scheduling
    def run_rescheduling(self) -> None:
        engine = self._engine
        index = engine.index
        if not index.undispatched_count:
            return
        graph = engine.graph
        if self._resched_cache_epoch != index.undispatched_epoch:
            self._resched_cache_epoch = index.undispatched_epoch
            self._resched_cache = [
                graph.get(task_id) for task_id in index.undispatched_ids() if task_id in graph
            ]
        candidates = [t for t in self._resched_cache if t.state in _RESCHEDULABLE]
        if not candidates:
            return
        t0 = _time.perf_counter()
        moves = engine.scheduler.reschedule(candidates)
        engine.metrics.record_scheduling_overhead(_time.perf_counter() - t0, len(moves))
        for move in moves:
            task = graph.get(move.task_id)
            if task.assigned_endpoint == move.endpoint:
                continue
            task.reschedule_count += 1
            engine.metrics.record_reschedule()
            # Announce the new endpoint selection; the staging coordinator
            # re-stages toward the new target (already-arrived replicas at
            # the old endpoint remain reusable).
            engine.bus.publish(
                TaskPlaced.for_task(task, time=engine.clock.now(), endpoint=move.endpoint)
            )

    # ---------------------------------------------------------------- metrics
    def sample_metrics(self, force: bool = False) -> None:
        engine = self._engine
        now = engine.clock.now()
        if not force and now - self._last_metrics_sample < engine.metrics.sample_interval_s:
            return
        self._last_metrics_sample = now
        engine.metrics.sample(
            now,
            engine.fabric.worker_snapshot(),
            engine.data_manager.active_staging_tasks(),
            engine.index.undispatched_by_endpoint(),
        )
