"""Locality-aware scheduling (§IV-D, Fig. 3).

``Locality`` makes real-time decisions: a task is only assigned when some
endpoint has available resources, and among those endpoints it picks the one
that minimises the amount of data that would have to be transferred (based on
where the task's dependencies left their outputs).  Because it uses no prior
knowledge and reacts to the current state only, it supports dynamic DAGs and
dynamic resource capacity — at the cost of not being able to hide data
staging behind computation (Fig. 10).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.dag import Task
from repro.sched.base import Placement, Scheduler

__all__ = ["LocalityScheduler"]


class LocalityScheduler(Scheduler):
    """Real-time, transfer-minimising endpoint selection."""

    name = "locality"
    uses_delay_mechanism = False
    supports_rescheduling = False

    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        context = self._require_context()
        placements: List[Placement] = []
        # With mocking enabled the mocked endpoint state cannot change while
        # this round runs, so read each endpoint's free capacity once and
        # track the effect of this round's own placements incrementally
        # instead of re-deriving ``unclaimed_free_capacity`` per task ×
        # endpoint.  The mocking-disabled ablation re-reads the live service
        # status per query, which a snapshot must not hide — re-derive per
        # task there, minus the round's placements (the store counts them
        # only once the engine applies them, after this round).
        names = context.endpoint_names()
        monitor = context.endpoint_monitor
        snapshot = monitor.mocking_enabled
        placed = dict.fromkeys(names, 0)

        def free_map() -> dict:
            # unclaimed_free_capacity = free - claims, additionally bounded
            # by the serving layer's cross-workflow capacity slice (a no-op
            # on the single-workflow path, where no slice is set).
            return {name: self.unclaimed_free_capacity(name, placed[name]) for name in names}

        unclaimed = free_map()
        # Level/arrival order: the engine hands tasks in ready order already.
        for task in ready_tasks:
            if not snapshot:
                unclaimed = free_map()
            candidates = [name for name in names if unclaimed[name] >= task.cores]
            if not candidates:
                break  # no idle resources anywhere; try again on the next pump
            endpoint = self._locality_selection(task, candidates, unclaimed)
            placed[endpoint] += 1
            if snapshot:
                unclaimed[endpoint] = max(0, unclaimed[endpoint] - 1)
            placements.append(Placement(task_id=task.task_id, endpoint=endpoint))
        return placements

    def _locality_selection(
        self, task: Task, candidates: List[str], unclaimed: dict
    ) -> str:
        """Pick the candidate endpoint minimising the data moved (Fig. 3).

        Under the data plane's default policy the metric is
        *bandwidth-aware*: the predicted multi-source staging time replaces
        raw bytes, so a replica behind a fat link beats a marginally closer
        one behind a slow WAN path.  Under the published policy the paper's
        plain bytes-moved rule is preserved byte-identically.
        """
        context = self._require_context()
        bandwidth_aware = not context.data_manager.published

        def cost(endpoint: str) -> tuple:
            if bandwidth_aware:
                moved = context.predicted_staging_time(task, endpoint)
            else:
                moved = context.data_manager.bytes_to_move_mb(task.input_files, endpoint)
            # Tie-break on free capacity (most idle workers first), then name
            # for determinism.
            return (moved, -unclaimed[endpoint], endpoint)

        return min(candidates, key=cost)
