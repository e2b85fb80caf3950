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
from repro.engine.store import TaskStore

__all__ = ["TaskIndex"]


class TaskIndex:
    """Per-state / per-endpoint index of tasks the engine still owns.

    Two groups of tasks are tracked:

    * the **scheduling queue** — ready tasks awaiting a placement decision
      (insertion-ordered dict, so removing placed tasks is O(placed) instead
      of rebuilding the whole queue), and
    * the **undispatched index** — tasks placed on an endpoint but not yet
      dispatched (scheduled/staging/staged), in *placement order* (what the
      re-scheduling pass walks).  Their counts, in total and per endpoint,
      for the metrics sampler and the scaling strategy, are the running
      aggregates of the graph's :class:`TaskStore`.
    """

    def __init__(self, store: TaskStore) -> None:
        self._store = store
        self._pending_schedule: Dict[str, Task] = {}
        self._undispatched: Dict[str, None] = {}  # insertion-ordered set of ids
        #: Bumped whenever the undispatched set's *membership* changes; the
        #: periodic re-scheduling pass caches its candidate list keyed by
        #: this instead of re-materialising it every cadence.
        self.undispatched_epoch = 0

    # ------------------------------------------------------ scheduling queue
    def enqueue(self, task: Task) -> None:
        """Add a ready task to the scheduling queue (idempotent)."""
        self._pending_schedule.setdefault(task.task_id, task)

    def remove_queued(self, task_id: str) -> None:
        self._pending_schedule.pop(task_id, None)

    def queued_tasks(self) -> List[Task]:
        """Tasks awaiting scheduling, in arrival order."""
        return list(self._pending_schedule.values())

    @property
    def queued_count(self) -> int:
        return len(self._pending_schedule)

    # --------------------------------------------------- undispatched index
    def mark_undispatched(self, task_id: str) -> None:
        """Record that ``task_id`` was placed (a move to another endpoint
        keeps its place in the order and is not a membership change)."""
        if task_id not in self._undispatched:
            self.undispatched_epoch += 1
            self._undispatched[task_id] = None

    def clear_undispatched(self, task_id: str) -> None:
        """Forget ``task_id`` (it was dispatched or terminally failed)."""
        if task_id in self._undispatched:
            del self._undispatched[task_id]
            self.undispatched_epoch += 1

    def undispatched_ids(self) -> List[str]:
        """Undispatched task ids in placement order (deterministic)."""
        return list(self._undispatched)

    @property
    def undispatched_count(self) -> int:
        return self._store.undispatched_count

    def undispatched_by_endpoint(self) -> Dict[str, int]:
        """Non-zero per-endpoint counts of tasks awaiting dispatch."""
        return self._store.undispatched_by_endpoint()
