"""Capacity-aware scheduling (§IV-D, Fig. 2).

``Capacity`` makes all of its decisions offline, immediately after the
workflow DAG is formed: the number of tasks assigned to an endpoint is
proportional to the endpoint's worker capacity, and tasks are walked in
depth-first order so that tasks on the same root-to-leaf path land on the
same endpoint (keeping intermediate data local).  Once a task's dependencies
complete, its data staging starts immediately and the task is dispatched as
soon as staging finishes — there is no delay mechanism and no re-scheduling,
which is why Capacity suits static DAGs on static resources.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.dag import Task
from repro.sched.base import Placement, Scheduler

__all__ = ["CapacityScheduler"]


class CapacityScheduler(Scheduler):
    """Offline, capacity-proportional DAG partitioning."""

    name = "capacity"
    uses_delay_mechanism = False
    supports_rescheduling = False

    def __init__(self) -> None:
        super().__init__()
        self._assignment: Dict[str, str] = {}

    # ------------------------------------------------------------ offline pass
    def on_workflow_submitted(self, tasks: Sequence[Task]) -> None:
        self._partition(tasks)

    def on_tasks_added(self, tasks: Sequence[Task]) -> None:
        # Capacity targets static DAGs, but when a dynamic workflow grows we
        # partition the new tasks with the same proportional rule rather than
        # leaving them unschedulable.
        self._partition(tasks)

    def _partition(self, tasks: Sequence[Task]) -> None:
        """Assign ``tasks`` to endpoints proportionally to worker capacity."""
        context = self._require_context()
        capacities = context.endpoint_monitor.capacities()
        if not capacities:
            return
        endpoints = sorted(capacities, key=lambda name: (-capacities[name], name))
        total_capacity = sum(capacities.values())
        new_ids = {t.task_id for t in tasks if t.task_id not in self._assignment}
        if not new_ids:
            return
        ordered = [t for t in context.graph.dfs_order() if t.task_id in new_ids]
        total_tasks = len(ordered)

        if total_capacity <= 0:
            # Degenerate case: no capacity information at all — spread evenly.
            shares = {name: total_tasks // len(endpoints) for name in endpoints}
        else:
            shares = {
                name: int(round(total_tasks * capacities[name] / total_capacity))
                for name in endpoints
            }
        # Rounding may leave a few tasks unaccounted for; give them to the
        # largest endpoints (and make sure every task gets an endpoint).
        assigned_total = sum(shares.values())
        index = 0
        while assigned_total < total_tasks:
            shares[endpoints[index % len(endpoints)]] += 1
            assigned_total += 1
            index += 1

        cursor = 0
        for endpoint in endpoints:
            quota = shares.get(endpoint, 0)
            for task in ordered[cursor : cursor + quota]:
                self._assignment[task.task_id] = endpoint
            cursor += quota
        # Any leftovers from rounding down: assign to the largest endpoint.
        for task in ordered[cursor:]:
            self._assignment[task.task_id] = endpoints[0]

    # -------------------------------------------------------------- scheduling
    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        self._require_context()
        placements: List[Placement] = []
        missing = [t for t in ready_tasks if t.task_id not in self._assignment]
        if missing:
            self._partition(missing)
        for task in ready_tasks:
            endpoint = self._assignment.get(task.task_id)
            if endpoint is None:
                # No endpoints known at all; leave the task for a later pump.
                continue
            placements.append(Placement(task_id=task.task_id, endpoint=endpoint))
        return placements
