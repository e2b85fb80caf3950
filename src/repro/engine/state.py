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

from typing import Dict, List, Optional

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
      dispatched (scheduled/staging/staged), with per-endpoint counts kept
      incrementally for the metrics sampler and the scaling strategy.
    """

    def __init__(self, store: Optional[TaskStore] = None) -> None:
        #: Columnar engine core: when the graph's :class:`TaskStore` is
        #: attached, the undispatched counts are read from its running
        #: aggregates (tasks in the scheduled / staging / staged band)
        #: instead of this index's dicts.  The dicts are still
        #: maintained — they carry the *placement order* the re-scheduling
        #: pass needs, and they are the scalar oracle the equivalence suite
        #: compares the arrays against.
        self._store = store
        self._pending_schedule: Dict[str, Task] = {}
        self._undispatched: Dict[str, str] = {}  # task_id -> endpoint
        self._undispatched_counts: Dict[str, int] = {}
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
    def mark_undispatched(self, task_id: str, endpoint: str) -> None:
        """Record that ``task_id`` is heading to ``endpoint`` (handles moves)."""
        previous = self._undispatched.get(task_id)
        if previous == endpoint:
            return
        if previous is not None:
            self._decrement(previous)
        else:
            self.undispatched_epoch += 1  # membership (not target) changed
        self._undispatched[task_id] = endpoint
        self._undispatched_counts[endpoint] = self._undispatched_counts.get(endpoint, 0) + 1

    def clear_undispatched(self, task_id: str) -> None:
        """Forget ``task_id`` (it was dispatched or terminally failed)."""
        endpoint = self._undispatched.pop(task_id, None)
        if endpoint is not None:
            self._decrement(endpoint)
            self.undispatched_epoch += 1

    def undispatched_ids(self) -> List[str]:
        """Undispatched task ids in placement order (deterministic)."""
        return list(self._undispatched)

    @property
    def undispatched_count(self) -> int:
        if self._store is not None:
            return self._store.undispatched_count
        return len(self._undispatched)

    def undispatched_by_endpoint(self) -> Dict[str, int]:
        """Non-zero per-endpoint counts of tasks awaiting dispatch."""
        if self._store is not None:
            return self._store.undispatched_by_endpoint()
        return {name: count for name, count in self._undispatched_counts.items() if count}

    # -------------------------------------------------------------- internal
    def _decrement(self, endpoint: str) -> None:
        count = self._undispatched_counts.get(endpoint, 0) - 1
        if count > 0:
            self._undispatched_counts[endpoint] = count
        else:
            self._undispatched_counts.pop(endpoint, None)
