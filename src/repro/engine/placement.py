"""Placement coordinator — placing ready tasks.

One pump round of the engine offers the queued ready tasks to the scheduler
(the observe–predict–decide loop of §IV-D), then places the endpoint-pinned
ones (the ``unifaas_endpoint`` hint) on their pins without asking it, and
announces each decision as a :class:`~repro.engine.events.TaskPlaced` event.
Every ready task reaches a placement this one way: it joins the engine's
:class:`~repro.engine.state.TaskIndex` when it becomes READY, and the next
pump places it.

The queue is an insertion-ordered index: placed tasks are deleted in O(1)
each instead of rebuilding the whole deque per round as the monolithic
client did.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING

from repro.engine.events import TaskPlaced

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.core import ExecutionEngine

__all__ = ["PlacementCoordinator"]


class PlacementCoordinator:
    """Turns ready tasks into endpoint placements."""

    def __init__(self, engine: "ExecutionEngine") -> None:
        self._engine = engine

    def schedule_ready(self) -> bool:
        """Place queued ready tasks (the scheduler's picks, then the pinned
        ones); True when any placed."""
        engine = self._engine
        index = engine.index
        if not index.queued_count:
            return False
        unpinned = index.queued_tasks()

        placements = []
        if unpinned:
            t0 = _time.perf_counter()
            placements = engine.scheduler.schedule(unpinned)
            engine.metrics.record_scheduling_overhead(
                _time.perf_counter() - t0, len(placements) or len(unpinned)
            )

        now = engine.clock.now
        placed_ids = set()
        by_id = {t.task_id: t for t in unpinned} if placements else {}
        for placement in placements:
            task = by_id[placement.task_id]
            index.remove_queued(task.task_id)
            placed_ids.add(task.task_id)
            engine.bus.publish(
                TaskPlaced(
                    time=now,
                    task=task,
                    task_id=task.task_id,
                    name=task.name,
                    endpoint=placement.endpoint,
                )
            )
        placed = bool(placements)
        if index.pinned:
            for task in index.take_pinned():
                engine.bus.publish(
                    TaskPlaced(
                        time=now,
                        task=task,
                        task_id=task.task_id,
                        name=task.name,
                        endpoint=task.assigned_endpoint,
                    )
                )
            placed = True

        # Ready tasks the scheduler left unplaced (no free capacity anywhere)
        # are the hottest prefetch candidates: their inputs can start moving
        # toward the hinted endpoint while they wait for a worker.
        if engine.prefetcher is not None and len(placements) < len(unpinned):
            for task in unpinned:
                if task.task_id not in placed_ids:
                    engine.prefetcher.consider_unplaced(task)
        return placed
