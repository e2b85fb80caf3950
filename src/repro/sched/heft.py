"""HEFT baseline scheduler.

The Heterogeneous Earliest Finish Time algorithm (Topcuoglu et al., 2002) is
the classic static list scheduler the paper's DHA priorities are adapted
from.  It is included as a reference baseline (and ablation target): it ranks
tasks by upward rank and assigns each, in rank order, to the endpoint with
the earliest finish time — but, unlike DHA, it does all of this offline, does
not delay dispatch, and never re-schedules, so it cannot react to dynamic
capacity.

The classic formulation schedules onto individual processors; a funcX
endpoint is a pool of workers, so the "processor availability" term is the
endpoint's estimated ready time assuming its workers drain the backlog of
already-assigned work evenly.

Like DHA, the offline pass runs rank computation and the assignment sweep as
row operations over the array-backed prediction matrices; the per task ×
endpoint form is the reference in ``tests/reference/dha_scalar.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.dag import Task
from repro.sched.base import Placement, Scheduler

__all__ = ["HEFTScheduler"]


class HEFTScheduler(Scheduler):
    """Static upward-rank / earliest-finish-time baseline."""

    name = "heft"
    uses_delay_mechanism = False
    supports_rescheduling = False
    #: Execution time (s) assumed for a task no profiler can predict yet.
    default_execution_time_s = 1.0

    def __init__(self) -> None:
        super().__init__()
        self._ranks: Dict[str, float] = {}
        self._assignment: Dict[str, str] = {}
        #: Estimated time at which each endpoint's workers become free.
        self._endpoint_ready: Dict[str, float] = {}

    # ------------------------------------------------------------ offline pass
    def on_workflow_submitted(self, tasks: Sequence[Task]) -> None:
        self._plan()

    def on_tasks_added(self, tasks: Sequence[Task]) -> None:
        self._plan()

    def _plan(self) -> None:
        context = self._require_context()
        graph = context.graph
        order = graph.topological_order()
        reverse = list(reversed(order))
        endpoints = context.endpoint_names()
        if endpoints:
            arrays = context.ensure_arrays()
            rows = arrays.rows(reverse, self.default_execution_time_s)
            w, d = arrays.row_means(rows)
            base = (w + d).tolist()
        else:
            # No endpoint is monitored yet: there is nothing to average over
            # and, below, nothing to assign to.
            base = [self.default_execution_time_s] * len(reverse)

        # Upward ranks (same recursion as DHA priorities).
        ranks: Dict[str, float] = {}
        for position, task in enumerate(reverse):
            succ = graph.successors(task.task_id)
            best = max((ranks[s.task_id] for s in succ), default=0.0)
            ranks[task.task_id] = base[position] + best
        self._ranks = ranks

        if not endpoints:
            return
        monitor = context.endpoint_monitor
        workers = np.array(
            [max(1, monitor.active_workers(name)) for name in endpoints], dtype=np.int64
        )
        ready = np.zeros(len(endpoints))
        finish_time: Dict[str, float] = {}
        row_of = {task.task_id: rows[position] for position, task in enumerate(reverse)}
        exec_matrix = arrays.exec_matrix
        stag_matrix = arrays.staging_matrix

        for task in sorted(order, key=lambda t: (-ranks[t.task_id], t.task_id)):
            if task.task_id in self._assignment:
                continue
            preds = graph.predecessors(task.task_id)
            pred_ready = max((finish_time.get(p.task_id, 0.0) for p in preds), default=0.0)
            row = row_of[task.task_id]
            finish = np.maximum(ready, pred_ready + stag_matrix[row]) + exec_matrix[row]
            column = int(np.argmin(finish))
            self._assignment[task.task_id] = endpoints[column]
            finish_time[task.task_id] = float(finish[column])
            # A pool of W workers absorbs a task's execution time at 1/W of a
            # single processor's occupancy.
            ready[column] += exec_matrix[row, column] / workers[column]
        self._endpoint_ready = dict(zip(endpoints, ready.tolist()))

    # -------------------------------------------------------------- scheduling
    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        placements: List[Placement] = []
        missing = [t for t in ready_tasks if t.task_id not in self._assignment]
        if missing:
            self._plan()
        for task in ready_tasks:
            endpoint = self._assignment.get(task.task_id)
            if endpoint is None:
                continue
            placements.append(Placement(task_id=task.task_id, endpoint=endpoint))
        return placements

    # ---------------------------------------------------------------- queries
    def rank(self, task_id: str) -> float:
        return self._ranks.get(task_id, 0.0)
