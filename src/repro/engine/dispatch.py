"""Dispatch coordinator — delay-mechanism gating and fabric submission.

The one handler of :class:`~repro.engine.events.StagingDone`: a staged task
joins its endpoint's client queue, and a failed ticket goes to the failure
coordinator (§IV-G).  Each pump round the coordinator walks every endpoint's
queue from the head.  The delay mechanism is one question per endpoint:
:meth:`~repro.sched.base.Scheduler.dispatch_allowance`, asked at the first
head the round's budget lets through and spent like the budget.  With
mocking on, a task the allowance let through takes its cores from the mock's
free capacity, so the spent allowance is what a fresh read would return;
with it off every read re-synchronises against the service, so the walk
asks again after each dispatch.  Dispatching builds the execution request,
submits it to the fabric and tells the endpoint monitor (mock update) and —
when the task has successors to feed — the prefetcher.  Leaving STAGED
releases the task's claim: the task store's pending-dispatch count is the
one claim count.  The round's dispatches are announced as one
:class:`~repro.engine.events.TasksDispatched` event.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional

from repro.core.dag import STAGED_CODE, Task, TaskState
from repro.engine.events import StagingDone, TasksDispatched

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["DispatchCoordinator"]


class DispatchCoordinator:
    """Owns the per-endpoint staged queues and the fabric hand-off."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine
        self._staged_queues: Dict[str, Deque[Task]] = defaultdict(deque)
        engine.bus.subscribe(StagingDone, self._on_staging_done)

    # ---------------------------------------------------------------- events
    def _on_staging_done(self, event: StagingDone) -> None:
        if event.failed:
            self._engine.failure.fail_staging(event)
            return
        self._staged_queues[event.endpoint].append(event.task)

    # ------------------------------------------------------------------ pump
    def dispatch_staged(
        self, force: bool = False, budget: Optional[Mapping[str, int]] = None
    ) -> bool:
        """Dispatch the queue heads the scheduler's allowance covers; True
        when any left.

        ``budget`` (multi-workflow serving) bounds how many workers' worth of
        tasks may leave per endpoint this round — the arbitration policy's
        per-tenant slice of the federation's free capacity.  Endpoints absent
        from the budget get nothing; ``None`` (single-workflow) is unbounded.
        ``force`` dispatches past the scheduler's allowance, never past the
        budget.
        """
        engine = self._engine
        store = engine.graph.store
        names = store.endpoint_names
        allowance_of = engine.scheduler.dispatch_allowance
        mocked = engine.endpoint_monitor.mocking_enabled
        now = engine.clock.now
        dispatched_any = False
        # The round's dispatches fold into one TasksDispatched event.
        batch: List[Task] = []
        batch_log: List[tuple] = []
        for endpoint, queue in self._staged_queues.items():
            left = None if budget is None else budget.get(endpoint, 0)
            asked = False
            allowance = None
            while queue:
                task = queue[0]
                row = task._row
                # Moved elsewhere or already handled (STAGED implies placed).
                if store.state[row] != STAGED_CODE or names[store.endpoint[row]] != endpoint:
                    queue.popleft()
                    continue
                cores = int(store.cores[row])
                if left is not None and left < cores:
                    break
                if not force:
                    if not asked:
                        allowance = allowance_of(endpoint)
                        asked = True
                    if allowance is not None and allowance < cores:
                        break
                queue.popleft()
                self.dispatch(task, endpoint, now, batch, batch_log)
                if left is not None:
                    left -= cores
                if allowance is not None:
                    if mocked:
                        allowance -= cores
                    else:
                        asked = False
                dispatched_any = True
        if batch:
            engine.bus.publish(
                TasksDispatched(
                    time=now,
                    count=len(batch),
                    scalar_log=tuple(batch_log),
                    tasks=tuple(batch),
                )
            )
        return dispatched_any

    def dispatch(
        self, task: Task, endpoint: str, now: float, batch: List[Task], batch_log: List[tuple]
    ) -> None:
        """Submit ``task`` to ``endpoint``, tell the observers, and add it (and
        its ``TaskDispatched`` log entry) to the round's batch."""
        engine = self._engine
        store = engine.graph.store
        request = engine.fabric.build_request(task)
        task.attempts += 1
        store.set_state(task._row, TaskState.DISPATCHED, now)
        engine.index.clear_undispatched(task.task_id)
        engine.fabric.submit(endpoint, request)
        batch_log.append((round(now, 9), "TaskDispatched", task.name, endpoint))
        batch.append(task)
        engine.endpoint_monitor.record_dispatch(endpoint, cores=int(store.cores[task._row]))
        if engine.prefetcher is not None and task.successors:
            engine.prefetcher.on_predecessor_progress(task)
