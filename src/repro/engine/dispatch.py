"""Dispatch coordinator — delay-mechanism gating and fabric submission.

Staged tasks wait in per-endpoint client queues.  Each pump round the
coordinator walks every queue head and asks the scheduler whether the task
may leave (DHA's delay mechanism hooks in through
:meth:`~repro.sched.base.Scheduler.should_dispatch`); dispatching builds the
execution request, submits it to the fabric and tells the endpoint monitor
(mock update), the scheduler (claim release) and the prefetcher.  The round's
dispatches are announced as one
:class:`~repro.engine.events.TasksDispatched` event.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional

from repro.core.dag import Task, TaskState
from repro.core.exceptions import UniFaaSError
from repro.engine.events import StagingDone, TasksDispatched

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["DispatchCoordinator"]


class DispatchCoordinator:
    """Owns the per-endpoint staged queues and the fabric hand-off."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine
        self._staged_queues: Dict[str, Deque[str]] = defaultdict(deque)
        engine.bus.subscribe(StagingDone, self._on_staging_done)

    # ---------------------------------------------------------------- events
    def _on_staging_done(self, event: StagingDone) -> None:
        if event.failed:
            return  # the failure coordinator owns this outcome
        self._staged_queues[event.endpoint].append(event.task_id)

    # ------------------------------------------------------------------ pump
    def dispatch_staged(
        self, force: bool = False, budget: Optional[Mapping[str, int]] = None
    ) -> bool:
        """Dispatch queue heads the scheduler clears; True when any left.

        ``budget`` (multi-workflow serving) bounds how many workers' worth of
        tasks may leave per endpoint this round — the arbitration policy's
        per-tenant slice of the federation's free capacity.  Endpoints absent
        from the budget get nothing; ``None`` (single-workflow) is unbounded.
        """
        engine = self._engine
        dispatched_any = False
        # The round's dispatches fold into one TasksDispatched event.
        batch: List[Task] = []
        batch_log: List[tuple] = []
        for endpoint, queue in self._staged_queues.items():
            allowance = None if budget is None else budget.get(endpoint, 0)
            while queue:
                task_id = queue[0]
                if task_id not in engine.graph:
                    queue.popleft()
                    continue
                task = engine.graph.get(task_id)
                if task.state != TaskState.STAGED or task.assigned_endpoint != endpoint:
                    # Task was re-scheduled elsewhere or already handled.
                    queue.popleft()
                    continue
                if allowance is not None and allowance < task.cores:
                    break
                if not force and not engine.scheduler.should_dispatch(task):
                    break
                queue.popleft()
                self.dispatch(task, batch, batch_log)
                if allowance is not None:
                    allowance -= task.cores
                dispatched_any = True
        if batch:
            engine.bus.publish(
                TasksDispatched(
                    time=engine.clock.now(),
                    count=len(batch),
                    scalar_log=tuple(batch_log),
                    tasks=tuple(batch),
                )
            )
        return dispatched_any

    def staged_demand(self) -> Dict[str, int]:
        """Workers' worth of dispatchable staged tasks per endpoint.

        What this workflow would dispatch right now given unlimited budget —
        the demand the serving layer's arbitration policy allocates against.
        A copy of the task store's ``staged_cores``; the run loop hands the
        policy that live dict itself instead of asking here every round.
        """
        return self._engine.graph.store.staged_demand()

    def dispatch(self, task: Task, batch: List[Task], batch_log: List[tuple]) -> None:
        """Submit ``task`` to the fabric, tell the observers, and add it (and
        its ``TaskDispatched`` log entry) to the round's batch."""
        engine = self._engine
        endpoint = task.assigned_endpoint
        resolved_args, resolved_kwargs = None, None
        if task.function.callable is not None:
            # Resolve future arguments for real (local) execution; harmless in
            # simulation mode where the callable is never invoked.
            try:
                resolved_args, resolved_kwargs = task.resolved_args(engine.graph)
            except UniFaaSError:
                resolved_args, resolved_kwargs = task.args, dict(task.kwargs)
        request = engine.fabric.build_request(task, resolved_args, resolved_kwargs)
        task.attempts += 1
        engine.graph.set_state(task.task_id, TaskState.DISPATCHED, now=engine.clock.now())
        engine.index.clear_undispatched(task.task_id)
        engine.fabric.submit(endpoint, request)
        now = engine.clock.now()
        batch_log.append((round(now, 9), "TaskDispatched", task.name, endpoint))
        batch.append(task)
        engine.endpoint_monitor.record_dispatch(endpoint, cores=task.cores)
        engine.scheduler.on_task_dispatched(task, endpoint)
        if engine.prefetcher is not None:
            engine.prefetcher.on_predecessor_progress(task.task_id)
