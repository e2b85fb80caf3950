"""Failure coordinator — the fault-tolerance policy of §IV-G.

Execution failures (a :class:`~repro.engine.events.TaskCompleted` event: the
record of a failed attempt) walk a three-step ladder:

1. **retry** — while ``attempts <= max_task_retries`` the task is re-staged
   to the endpoint the scheduler chose (its data is already there);
2. **reassign** — afterwards it moves to the most *reliable* endpoint (by
   observed success rate) that has not failed it yet;
3. **fail** — when every endpoint failed it, the task is terminal and its
   future carries a :class:`~repro.core.exceptions.TaskFailedError`.

Staging failures are terminal immediately.  The dispatch coordinator, the
one handler of :class:`~repro.engine.events.StagingDone`, hands a failed
ticket to :meth:`FailureCoordinator.fail_staging`; the task's future carries
the :class:`~repro.core.exceptions.StagingFailedError` the ticket recorded
as its cause — a :class:`~repro.core.exceptions.TransferFailedError` (the
transfer, its source and its real attempt count) when a transfer ran out of
retries, a :class:`~repro.core.exceptions.NoReplicaError` when the input
had no replica left to copy.

Either terminal outcome is announced as a
:class:`~repro.engine.events.TaskFailed` event.

The coordinator also reacts to endpoint *dynamics*: when an
:class:`~repro.engine.events.EndpointCrashed` event arrives, tasks already
placed on (but not yet dispatched to) the dead endpoint are immediately
re-placed on a surviving endpoint instead of staging data toward a corpse,
and the retry step of the ladder skips endpoints the monitor knows to be
offline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.dag import Task, TaskState
from repro.core.exceptions import TaskFailedError
from repro.engine.events import (
    EndpointCrashed,
    StagingDone,
    TaskCompleted,
    TaskFailed,
    TaskPlaced,
)
from repro.faas.types import TaskExecutionRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["FailureCoordinator"]


class FailureCoordinator:
    """Retry, reassign, then fail (§IV-G)."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine
        engine.bus.subscribe(EndpointCrashed, self._on_endpoint_crashed)
        # A failed attempt, announced after the observers saw its record.
        engine.bus.subscribe(
            TaskCompleted, lambda e: self.handle_execution_failure(e.task, e.record)
        )

    # ------------------------------------------------------ staging failures
    def fail_staging(self, event: StagingDone) -> None:
        """Terminally fail the task of a failed :class:`StagingDone`."""
        engine = self._engine
        task = event.task
        engine.index.clear_undispatched(task.task_id)
        if engine.context is not None:
            engine.context.release_task(task.task_id)
        engine.graph.set_state(task, TaskState.FAILED, now=engine.clock.now)
        error = event.ticket.error
        task.future.set_exception(error)
        engine.bus.publish(
            TaskFailed(
                time=engine.clock.now,
                task=task,
                task_id=task.task_id,
                name=task.name,
                endpoint=event.endpoint,
                error=str(error),
                attempts=task.attempts,
            )
        )

    # ------------------------------------------------------------- dynamics
    def _online_endpoints(self) -> List[str]:
        """Endpoints the monitor's mocked view believes are online."""
        monitor = self._engine.endpoint_monitor
        return [name for name in monitor.endpoint_names() if monitor.mock(name).online]

    def _on_endpoint_crashed(self, event: EndpointCrashed) -> None:
        """Re-place undispatched tasks stranded on a crashed endpoint.

        Dispatched/running tasks surface as failure records through the
        ladder below; the placed-but-undispatched ones would otherwise keep
        staging data toward the dead endpoint until a periodic re-scheduling
        pass noticed.
        """
        engine = self._engine
        crashed = event.endpoint
        survivors = [e for e in self._online_endpoints() if e != crashed]
        if not survivors:
            # Nowhere to go: leave the tasks placed, the stall diagnosis and
            # a later rejoin (or scale-out) will resolve them.
            return
        now = engine.clock.now
        # Loop-invariant: reliability cannot change while re-placing.  The
        # pile-on onto one survivor is deliberate — the next scheduling /
        # re-scheduling pass rebalances with full capacity knowledge.
        target = engine.task_monitor.most_reliable_endpoint(survivors)
        for task in engine.index.undispatched_tasks():
            if task.assigned_endpoint != crashed:
                continue
            engine.bus.publish(
                TaskPlaced(
                    time=now, task=task, task_id=task.task_id, name=task.name, endpoint=target
                )
            )

    # ---------------------------------------------------- execution failures
    def handle_execution_failure(self, task: Task, record: TaskExecutionRecord) -> None:
        """Apply the retry / reassign / fail ladder to a failed execution."""
        engine = self._engine
        # Record when the failed attempt actually started so retry latency is
        # measurable (the success path records it in the completion handler).
        task.timestamps.started = record.started_at
        endpoint = record.endpoint
        if endpoint not in task.failed_endpoints:
            task.failed_endpoints.append(endpoint)
        all_endpoints = engine.fabric.endpoint_names()
        online = set(self._online_endpoints())

        # Per-task retry budget (authoring API's ``@job(retries=...)``) wins
        # over the config-wide default when set.
        retry_limit = (
            task.max_retries
            if task.max_retries is not None
            else engine.config.max_task_retries
        )
        if task.attempts <= retry_limit and endpoint in online:
            # Retry on the endpoint chosen by the scheduler (data already there).
            retry_endpoint = endpoint
        else:
            # Reassign: prefer online endpoints that have not failed the task;
            # fall back to any not-yet-failed endpoint (it may rejoin before
            # the dispatch arrives, and a dead one fails fast and is excluded
            # on the next rung).
            candidates = [
                e for e in all_endpoints if e not in task.failed_endpoints and e in online
            ]
            if not candidates:
                candidates = [e for e in all_endpoints if e not in task.failed_endpoints]
            if not candidates:
                if engine.context is not None:
                    engine.context.release_task(task.task_id)
                engine.graph.set_state(task, TaskState.FAILED, now=engine.clock.now)
                error = TaskFailedError(
                    task.task_id, record.error or "unknown error", task.attempts
                )
                task.future.set_exception(error)
                engine.bus.publish(
                    TaskFailed(
                        time=engine.clock.now,
                        task=task,
                        task_id=task.task_id,
                        name=task.name,
                        endpoint=endpoint,
                        error=str(error),
                        attempts=task.attempts,
                    )
                )
                return
            retry_endpoint = engine.task_monitor.most_reliable_endpoint(candidates)
        engine.bus.publish(
            TaskPlaced(
                time=engine.clock.now,
                task=task,
                task_id=task.task_id,
                name=task.name,
                endpoint=retry_endpoint,
            )
        )
