"""Periodic coordinator — everything a workflow does on a cadence (§IV-B/D).

Independent timers, all driven by the engine clock so they behave
identically under the simulated and wall clocks:

* **endpoint sync** — re-synchronise the endpoint monitor's mocks with the
  (possibly stale) service view and announce
  :class:`~repro.engine.events.CapacityChanged`;
* **placement re-solve** — let the global placement service refresh its
  facility-location plan when its cadence elapsed or dynamics invalidated
  the current generation (the service gates itself);
* **re-scheduling** — offer the not-yet-dispatched tasks back to the
  scheduler (DHA's task stealing, §IV-D);

plus the metrics sampler, which hands the collector the fabric's worker
counts and the task store's live per-endpoint pending counts as they are:
no status object is built and no undispatched task is re-scanned.  Work on
the shared substrate is not a tenant's: elastic scaling (§IV-H) and the
profiler refresh (§IV-C, retraining the execution / transfer models every
``profiler_update_interval_s`` on what the whole federation observed) are
federation cadences of the run loop
(:meth:`~repro.serving.manager.WorkflowManager.run`), paid once however many
tenants are active.  A retrain needs no eviction here: every cached
prediction is stamped with the profiler's ``prediction_version`` and a stale
one is rejected where it is read.

The run loop does not poll :meth:`PeriodicCoordinator.check` every round: the
coordinator publishes :attr:`~PeriodicCoordinator.due_at`, the earliest clock
time any of its timers can fire, and the loop calls ``check`` once the clock
reaches it (the minimum over its active tenants, and the federation's refit
deadline, is the loop's one cadence deadline).  ``check`` itself still tests
every timer, so calling it early or needlessly is a no-op.
"""

from __future__ import annotations

import time as _time
from math import isfinite
from typing import TYPE_CHECKING

from repro.engine.events import CapacityChanged, TaskPlaced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["PeriodicCoordinator"]

#: ``due_at`` is set this much (relatively) before the first instant a timer's
#: own ``now - last >= interval`` test can pass, so rounding in ``last +
#: interval`` can only make the run loop call ``check`` early, never late.
EARLY = 1e-9


class PeriodicCoordinator:
    """Runs the engine's periodic duties when their intervals elapse."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine
        self._last_endpoint_sync = 0.0
        self._last_reschedule = 0.0
        self._last_metrics_sample = 0.0
        #: Earliest clock time a timer above can fire (see the module
        #: docstring); re-derived whenever one of them is reset.
        self.due_at = 0.0
        #: Re-scheduling candidates: the undispatched index, which holds
        #: exactly the SCHEDULED / STAGING / STAGED rows, re-derived only when
        #: a row's target or pending-dispatch membership
        #: (``TaskStore.pending_version``) moved.  An unchanged pool is handed
        #: to the scheduler as the very same tuple, which its no-op
        #: fingerprint recognises in O(1).
        self._resched_version = None
        self._resched_candidates: tuple = ()

    # ------------------------------------------------------------------ tick
    def check(self) -> None:
        engine = self._engine
        now = engine.clock.now
        if now - self._last_endpoint_sync >= engine.config.endpoint_sync_interval_s:
            self._last_endpoint_sync = now
            engine.endpoint_monitor.synchronize()
            engine.bus.publish(CapacityChanged(time=now))
        if engine.plan_service is not None:
            # Before re-scheduling: it steers by the plan, so a due re-solve
            # (cadence elapsed or generation invalidated) must land first.
            # The service itself gates on its own interval.
            engine.plan_service.maybe_resolve(now)
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
            self._last_metrics_sample + engine.metrics.sample_interval_s,
        )
        if engine.scheduler.supports_rescheduling:
            due = min(due, self._last_reschedule + config.rescheduling_interval_s)
        if engine.plan_service is not None:
            due = min(due, engine.plan_service.next_resolve_at())
        self.due_at = due - EARLY * max(1.0, abs(due)) if isfinite(due) else due

    # ---------------------------------------------------------- re-scheduling
    def run_rescheduling(self) -> None:
        engine = self._engine
        graph = engine.graph
        store = graph.store
        if not store.undispatched_count:
            return
        if store.pending_version != self._resched_version:
            self._resched_version = store.pending_version
            self._resched_candidates = tuple(engine.index.undispatched_tasks())
        candidates = self._resched_candidates
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
                TaskPlaced(
                    time=engine.clock.now,
                    task=task,
                    task_id=task.task_id,
                    name=task.name,
                    endpoint=move.endpoint,
                )
            )

    # ---------------------------------------------------------------- metrics
    def sample_metrics(self, force: bool = False) -> None:
        engine = self._engine
        now = engine.clock.now
        if not force and now - self._last_metrics_sample < engine.metrics.sample_interval_s:
            return
        self._last_metrics_sample = now
        engine.metrics.sample(
            now,
            engine.fabric.worker_counts(),
            engine.data_manager.active_staging_tasks(),
            engine.graph.store.pending_dispatch,
        )
