"""Staging coordinator — the staged-queue / data-manager interplay (§IV-E).

The one handler of :class:`~repro.engine.events.TaskPlaced`: it walks the
task through ``SCHEDULED -> STAGING``, hands its input files to the data
manager, and then tells the prefetcher the real placement landed (which
releases a guessed placement's virtual claim).  When the data manager
reports a ticket done the coordinator validates it (the task may have been
re-scheduled or re-assigned since, in which case a *newer* ticket is
authoritative) and announces the outcome as a
:class:`~repro.engine.events.StagingDone` event, whose one handler — the
dispatch coordinator's — queues a staged task and hands a failed ticket to
the failure coordinator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.dag import Task, TaskState, state_codes
from repro.data.manager import StagingTicket
from repro.engine.events import StagingDone, TaskPlaced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["StagingCoordinator"]

#: States in which a finished staging ticket can still matter.
_STAGING = state_codes(TaskState.STAGING, TaskState.SCHEDULED)


class StagingCoordinator:
    """Moves placed tasks through data staging."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine
        engine.bus.subscribe(TaskPlaced, self._on_task_placed)
        engine.data_manager.add_staged_callback(self._on_ticket_done, engine.namespace)

    # ---------------------------------------------------------------- events
    def _on_task_placed(self, event: TaskPlaced) -> None:
        self.begin_staging(event.task, event.endpoint)
        prefetcher = self._engine.prefetcher
        if prefetcher is not None:
            prefetcher.on_task_placed(event.task_id, event.endpoint)

    def begin_staging(self, task: Task, endpoint: str) -> None:
        """Assign ``task`` to ``endpoint`` and start staging its inputs."""
        engine = self._engine
        store = engine.graph.store
        row = task._row
        now = engine.clock.now
        store.set_endpoint(row, endpoint)
        store.set_state(row, TaskState.SCHEDULED, now)
        engine.index.mark_undispatched(task)
        store.set_state(row, TaskState.STAGING, now)
        # The task's DHA upward rank orders its transfers within the data
        # plane's demand class (the published policy ignores the priority).
        engine.data_manager.stage(
            task.task_id, task.input_files, endpoint, priority=float(store.priority[row])
        )

    def _on_ticket_done(self, ticket: StagingTicket) -> None:
        engine = self._engine
        graph = engine.graph
        task = graph.find(ticket.task_id)
        if task is None or graph.store.state[task._row] not in _STAGING:
            return
        if engine.data_manager.ticket_for_task(ticket.task_id) is not ticket:
            # A re-scheduling move or retry opened a newer ticket for this
            # task; this one belongs to an abandoned destination.
            return
        now = engine.clock.now
        if not ticket.failed:
            graph.store.set_state(task._row, TaskState.STAGED, now)
        engine.bus.publish(
            StagingDone(
                time=now,
                task=task,
                task_id=task.task_id,
                name=task.name,
                endpoint=ticket.destination,
                failed=ticket.failed,
                ticket=ticket,
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
        for parent in task.predecessors:
            for file in parent.output_files:
                if file.file_id not in seen:
                    task.input_files.append(file)
                    seen.add(file.file_id)
                    added = True
        return added
