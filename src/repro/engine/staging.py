"""Staging coordinator — the staged-queue / data-manager interplay (§IV-E).

Listens for :class:`~repro.engine.events.TaskPlaced` events, walks the task
through ``SCHEDULED -> STAGING`` and hands its input files to the data
manager.  When the data manager reports a ticket done the coordinator
validates it (the task may have been re-scheduled or re-assigned since, in
which case a *newer* ticket is authoritative) and announces the outcome as a
:class:`~repro.engine.events.StagingDone` event — success feeds the dispatch
coordinator's staged queues, failure feeds the failure coordinator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.dag import Task, TaskState
from repro.data.manager import StagingTicket
from repro.engine.events import StagingDone, TaskPlaced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["StagingCoordinator"]


class StagingCoordinator:
    """Moves placed tasks through data staging."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine
        engine.bus.subscribe(TaskPlaced, self._on_task_placed)
        engine.data_manager.add_staged_callback(self._on_ticket_done)

    # ---------------------------------------------------------------- events
    def _on_task_placed(self, event: TaskPlaced) -> None:
        self.begin_staging(event.task, event.endpoint)

    def begin_staging(self, task: Task, endpoint: str) -> None:
        """Assign ``task`` to ``endpoint`` and start staging its inputs."""
        engine = self._engine
        now = engine.clock.now()
        task.assigned_endpoint = endpoint
        engine.graph.set_state(task.task_id, TaskState.SCHEDULED, now=now)
        engine.index.mark_undispatched(task.task_id)
        engine.graph.set_state(task.task_id, TaskState.STAGING, now=now)
        # The task's DHA upward rank orders its transfers within the data
        # plane's demand class (the FIFO path ignores the priority).
        engine.data_manager.stage(
            task.task_id, task.input_files, endpoint, priority=task.priority
        )

    def _on_ticket_done(self, ticket: StagingTicket) -> None:
        engine = self._engine
        if ticket.task_id not in engine.graph:
            return
        task = engine.graph.get(ticket.task_id)
        if task.state not in (TaskState.STAGING, TaskState.SCHEDULED):
            return
        if engine.data_manager.ticket_for_task(task.task_id) is not ticket:
            # A re-scheduling move or retry opened a newer ticket for this
            # task; this one belongs to an abandoned destination.
            return
        if not ticket.failed:
            engine.graph.set_state(task.task_id, TaskState.STAGED, now=engine.clock.now())
        engine.bus.publish(
            StagingDone.for_task(
                task,
                time=engine.clock.now(),
                endpoint=ticket.destination,
                failed=ticket.failed,
                ticket_id=ticket.ticket_id,
            )
        )

    # --------------------------------------------------------------- helpers
    def augment_input_files(self, task: Task) -> bool:
        """Add dependency outputs to the task's input file list.

        Returns True when any file was added (the task's input size — and
        therefore its own and its successors' input-size estimates — changed).
        """
        seen = {f.file_id for f in task.input_files}
        added = False
        for parent in self._engine.graph.predecessors(task.task_id):
            for file in parent.output_files:
                if file.file_id not in seen:
                    task.input_files.append(file)
                    seen.add(file.file_id)
                    added = True
        return added
