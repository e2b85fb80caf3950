"""Indexed engine bookkeeping — the data structures behind the hot path.

The pre-refactor client kept a deque of tasks awaiting scheduling that it
filtered and *rebuilt* on every pump (O(pending) per round), and a flat set
of undispatched task ids that the metrics sampler re-scanned and re-grouped
by endpoint on every sample (O(pending) again).  :class:`TaskIndex` replaces
both with structures that are updated in O(1) per state change — the same
incremental-assignment concern that drives capacitated placement bookkeeping
— and, being insertion-ordered, make iteration order deterministic where the
old set-based scan depended on hash randomisation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.dag import Task

__all__ = ["TaskIndex"]


class TaskIndex:
    """Per-state / per-endpoint index of tasks the engine still owns.

    Three groups of tasks are tracked:

    * the **scheduling queue** — unpinned ready tasks awaiting the
      scheduler's decision (insertion-ordered dict, so removing placed tasks
      is O(placed) instead of rebuilding the whole queue);
    * the **pinned set** — ready tasks carrying an endpoint hint, which the
      next pump places on their pin without asking the scheduler;
    * the **undispatched index** — tasks placed on an endpoint but not yet
      dispatched, in *placement order* (what the re-scheduling pass walks).
      It holds exactly the graph's SCHEDULED / STAGING / STAGED rows: a task
      joins it as it enters SCHEDULED and leaves it as it leaves STAGED or
      STAGING, so each membership change moves the
      :class:`~repro.engine.store.TaskStore`'s ``pending_version``.  Their
      counts, in total and per endpoint, for the metrics sampler and the
      scaling strategy, are the store's running aggregates
      (``undispatched_count``, ``pending_dispatch``).

    A task joins the queue or the pinned set when it becomes READY and
    leaves it when it is placed, so every queued task is READY and unpinned
    and a pinned task never enters the queue: the scheduler reads the queue
    as it is, with no filter.
    """

    def __init__(self) -> None:
        self._pending_schedule: Dict[str, Task] = {}
        #: Ready endpoint-pinned tasks awaiting placement on their pin (read
        #: only: :meth:`take_pinned` empties it).
        self.pinned: Dict[str, Task] = {}
        #: Ready tasks awaiting placement, queued and pinned (a plain count
        #: the run loop reads every visit).
        self.queued_count = 0
        self._undispatched: Dict[str, Task] = {}  # insertion-ordered

    # ------------------------------------------------------ scheduling queue
    def enqueue(self, task: Task, pinned: bool) -> None:
        """Add a task that just became ready to the scheduling queue, or to
        the pinned set when it carries an endpoint hint (idempotent)."""
        queue = self.pinned if pinned else self._pending_schedule
        if task.task_id not in queue:
            queue[task.task_id] = task
            self.queued_count += 1

    def remove_queued(self, task_id: str) -> None:
        if self._pending_schedule.pop(task_id, None) is not None:
            self.queued_count -= 1

    def queued_tasks(self) -> List[Task]:
        """Unpinned tasks awaiting scheduling, in arrival order."""
        return list(self._pending_schedule.values())

    def take_pinned(self) -> List[Task]:
        """Empty the pinned set; its tasks in arrival order."""
        pinned = list(self.pinned.values())
        self.pinned.clear()
        self.queued_count -= len(pinned)
        return pinned

    # --------------------------------------------------- undispatched index
    def mark_undispatched(self, task: Task) -> None:
        """Record that ``task`` was placed (a move to another endpoint keeps
        its place in the order and is not a membership change)."""
        if task.task_id not in self._undispatched:
            self._undispatched[task.task_id] = task

    def clear_undispatched(self, task_id: str) -> None:
        """Forget ``task_id`` (it was dispatched or terminally failed)."""
        if task_id in self._undispatched:
            del self._undispatched[task_id]

    def undispatched_tasks(self) -> List[Task]:
        """Undispatched tasks in placement order (deterministic)."""
        return list(self._undispatched.values())
