"""Dynamic heterogeneity-aware scheduling — DHA (§IV-D, Fig. 4).

DHA is a hybrid between the offline Capacity scheduler and the real-time
Locality scheduler:

1. **Task prioritisation** — every task gets a priority computed recursively
   (eq. 2)::

       priority(t) = d(t) + w(t) + max_{s in succ(t)} priority(s)

   where ``d`` is the average data-staging time over all endpoints and ``w``
   the average execution time over all endpoints (both predicted by the
   profilers).  This is the upward rank of HEFT, so predecessors are placed
   before their successors and critical-path tasks come first.

2. **Endpoint selection** — ready tasks are considered in priority order and
   assigned to the endpoint with the earliest estimated finish time,
   accounting for predicted staging time, predicted execution time on that
   endpoint's hardware, and the backlog of work already heading there.

3. **Delay mechanism** — data staging starts immediately on selection, but
   the task is only dispatched once the target endpoint has idle workers, so
   staged tasks wait in the client queue where they remain re-schedulable.

4. **Re-scheduling** — periodically (and whenever resource capacity changes)
   the pending tasks (scheduled/staging/staged, not yet dispatched) are
   re-examined; tasks are stolen from backlogged endpoints and moved to
   endpoints with idle capacity when that lowers their estimated finish time.

The priority sweep and endpoint selection run over the array-backed
:class:`~repro.sched.vector.PredictionIndex` (one reverse-topological sweep
over dense task × endpoint matrices; an argmin over an incrementally
maintained per-endpoint estimated-finish vector).  The algorithm as the paper
writes it — one task, one endpoint at a time — is kept as an executable
specification in ``tests/reference/dha_scalar.py``; the property tests hold
every decision made here to it, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dag import Task, TaskGraph
from repro.data import remote_file as _remote_file
from repro.sched.base import Placement, Scheduler, SchedulingContext

__all__ = ["DHAScheduler"]


class DHAScheduler(Scheduler):
    """Priority-driven, heterogeneity-aware hybrid scheduler."""

    name = "dha"
    uses_delay_mechanism = True
    supports_rescheduling = True

    def __init__(
        self,
        *,
        enable_delay_mechanism: bool = True,
        enable_rescheduling: bool = True,
        default_execution_time_s: float = 1.0,
    ) -> None:
        super().__init__()
        self.uses_delay_mechanism = enable_delay_mechanism
        self.supports_rescheduling = enable_rescheduling
        self.default_execution_time_s = default_execution_time_s
        self._priorities: Dict[str, float] = {}
        #: Where each not-yet-dispatched task is currently headed.
        self._pending_target: Dict[str, str] = {}
        #: Number of placements moved by the re-scheduling mechanism.
        self.rescheduled_count = 0
        #: Generation of the priority map; part of the sort-cache key.
        self._priority_epoch = 0
        #: Last priority-sorted orderings per consumer ("schedule" /
        #: "reschedule"): re-sorting is skipped while the task set and the
        #: priorities are unchanged (the dirty flag is the epoch moving).
        self._order_cache: Dict[str, Tuple[Tuple, List[Task]]] = {}
        #: Sorts actually performed (tests assert the cache short-circuits).
        self.sort_count = 0
        #: Fingerprint of the inputs of the last re-scheduling pass that
        #: moved nothing; an identical fingerprint proves an identical no-op.
        self._resched_noop_fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------- priorities
    def on_workflow_submitted(self, tasks: Sequence[Task]) -> None:
        self._compute_priorities()

    def on_tasks_added(self, tasks: Sequence[Task]) -> None:
        # Eq. 2 flows from successors to predecessors, so growing the DAG can
        # only change the new tasks and their ancestors: recompute exactly
        # that slice instead of the whole graph (dynamic workflows used to
        # pay O(V+E) per batch of added tasks).
        self._compute_priorities(tasks)

    def _compute_priorities(self, new_tasks: Optional[Sequence[Task]] = None) -> None:
        context = self._require_context()
        graph = context.graph
        if new_tasks is None:
            order = graph.topological_order()
            order.reverse()
            # A full sweep starts from a fresh map so entries for tasks no
            # longer in the graph cannot accumulate across workflows.
            self._priorities = {}
        else:
            order = self._affected_reverse_topological(graph, new_tasks)
        if not order:
            return
        self._sweep(context, order)
        self._priority_epoch += 1

    def _affected_reverse_topological(
        self, graph: TaskGraph, new_tasks: Sequence[Task]
    ) -> List[Task]:
        """The priority-recompute slice for ``new_tasks``, successors-first.

        Eq. 2 needs a task's successors before the task itself, so the slice
        is: the seeds, any still-unprioritised descendants (their values
        must exist before the seeds' maxima are taken — traversal stops at
        descendants that already carry a priority, which are reused as-is),
        and every ancestor of all of those (their maxima may rise).
        """
        affected = {t.task_id for t in new_tasks if t.task_id in graph}
        stack = list(affected)
        while stack:
            task_id = stack.pop()
            for successor in graph.successors(task_id):
                succ_id = successor.task_id
                if succ_id not in affected and succ_id not in self._priorities:
                    affected.add(succ_id)
                    stack.append(succ_id)
            for dep in graph.get(task_id).dependencies:
                if dep not in affected:
                    affected.add(dep)
                    stack.append(dep)
        out_degree = {
            task_id: sum(
                1 for s in graph.successors(task_id) if s.task_id in affected
            )
            for task_id in affected
        }
        queue = sorted(task_id for task_id, degree in out_degree.items() if degree == 0)
        order: List[Task] = []
        head = 0
        while head < len(queue):
            task_id = queue[head]
            head += 1
            order.append(graph.get(task_id))
            for dep in sorted(graph.get(task_id).dependencies):
                if dep in affected:
                    out_degree[dep] -= 1
                    if out_degree[dep] == 0:
                        queue.append(dep)
        return order

    def _sweep(self, context: SchedulingContext, order: Sequence[Task]) -> None:
        """Eq. 2 over ``order`` (successors first).

        ``d`` and ``w`` of the whole slice come from one batched row-mean
        over the dense prediction matrices; the recursion itself reads and
        writes plain floats.
        """
        if context.endpoint_names():
            arrays = context.ensure_arrays()
            w, d = arrays.row_means(arrays.rows(order, self.default_execution_time_s))
            base = (d + w).tolist()
        else:
            # No endpoint is monitored yet: there is nothing to average over.
            base = [self.default_execution_time_s] * len(order)
        graph = context.graph
        priorities = self._priorities
        for position, task in enumerate(order):
            succ = graph.successors(task.task_id)
            best = max((priorities.get(s.task_id, 0.0) for s in succ), default=0.0)
            value = base[position] + best
            priorities[task.task_id] = value
            task.priority = value

    def priority(self, task_id: str) -> float:
        return self._priorities.get(task_id, 0.0)

    def _ordered_by_priority(self, tasks: Sequence[Task], slot: str) -> List[Task]:
        """Priority order with a dirty-flag cache.

        The sort is skipped while the offered task set and the priority map
        are both unchanged (same ids, same epoch) — re-scheduling passes and
        repeated pumps over an unchanged ready set hit this constantly.
        """
        key = (tuple(t.task_id for t in tasks), self._priority_epoch)
        cached = self._order_cache.get(slot)
        if cached is not None and cached[0] == key:
            return cached[1]
        self.sort_count += 1
        ordered = sorted(
            tasks, key=lambda t: (-self._priorities.get(t.task_id, 0.0), t.task_id)
        )
        self._order_cache[slot] = (key, ordered)
        return ordered

    # -------------------------------------------------------------- scheduling
    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        context = self._require_context()
        missing = [t for t in ready_tasks if t.task_id not in self._priorities]
        if missing:
            self._compute_priorities(missing)
        if not context.endpoint_names():
            return []
        ordered = self._ordered_by_priority(ready_tasks, "schedule")
        arrays = context.ensure_arrays()
        # rows() first: it rebuilds the index when the endpoint set changed,
        # and the state vectors must be validated against the rebuilt columns.
        rows = arrays.rows(ordered, self.default_execution_time_s)
        vectors = self._endpoint_vectors(arrays)
        vectors.sync(context.endpoint_monitor)
        exec_matrix = arrays.exec_matrix
        stag_matrix = arrays.staging_matrix
        names = arrays.endpoint_names
        plan = self._current_plan()
        warm_mask = self._warm_mask(names)
        placements: List[Placement] = []
        for position, task in enumerate(ordered):
            row = rows[position]
            finish = vectors.finish_row(exec_matrix[row], stag_matrix[row])
            mask = self._selection_mask(plan, task, names, warm_mask)
            if mask is not None:
                column = int(np.argmin(np.where(mask, finish, np.inf)))
            else:
                column = int(np.argmin(finish))
            endpoint = names[column]
            self.claim(endpoint, 1)
            self._pending_target[task.task_id] = endpoint
            placements.append(
                Placement(
                    task_id=task.task_id,
                    endpoint=endpoint,
                    estimated_finish_s=float(finish[column]),
                )
            )
        return placements

    @staticmethod
    def _input_roots(plan, task: Task) -> frozenset:
        """The plan replica roots of ``task``'s input files (may be empty).

        A task reading hot datasets the plan rooted somewhere runs cheapest
        next to those replicas: selection restricts the EFT sweep to these
        endpoints while at least one survives the plan-warm filter, which is
        what turns the plan's per-file roots into co-located
        consumers (the split-penalty term of the solver objective assumes
        shared consumers follow the roots).
        """
        if plan is None or not plan.replica_roots or not task.input_files:
            return frozenset()
        roots = {plan.root_for(f.file_id) for f in task.input_files}
        roots.discard(None)
        return frozenset(roots)

    def _selection_mask(
        self,
        plan,
        task: Task,
        names: Sequence[str],
        warm_mask: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Per-task candidate mask over ``names`` (None = every endpoint).

        With a placement plan live the global optimizer already paid the
        opening costs of the warm set, so greedy EFT only arbitrates *within*
        it.  Filter order: the plan-warm restriction (``warm_mask``) first,
        then the root-affinity restriction (:meth:`_input_roots`) while it
        leaves at least one candidate.
        """
        roots = self._input_roots(plan, task)
        if not roots:
            return warm_mask
        rmask = np.fromiter(
            (name in roots for name in names), dtype=bool, count=len(names)
        )
        if warm_mask is None:
            return rmask if rmask.any() else None
        combined = warm_mask & rmask
        return combined if combined.any() else warm_mask

    def _warm_mask(self, names: Sequence[str]) -> Optional[np.ndarray]:
        """Boolean plan-warm mask over ``names``.

        Returns None when there is no plan, when no listed endpoint is warm
        (selection falls back to the plain paper EFT sweep over all of them),
        or when every endpoint is warm (the restriction is a no-op) — the
        caller then takes the plain argmin.
        """
        plan = self._current_plan()
        if plan is None or not plan.warm_endpoints:
            return None
        mask = np.fromiter(
            (plan.is_warm(name) for name in names), dtype=bool, count=len(names)
        )
        if not mask.any() or mask.all():
            return None
        return mask

    def _endpoint_vectors(self, arrays):
        """The incremental endpoint-state arrays, rebuilt on topology change."""
        vectors = self._vectors
        if vectors is None or vectors.names != arrays.endpoint_names:
            from repro.sched.vector import EndpointStateVectors

            monitor = self.context.endpoint_monitor
            vectors = EndpointStateVectors(monitor, arrays.endpoint_names)
            for name, count in self._claims.items():
                if count:
                    vectors.add_claim(name, count)
            self._vectors = vectors
        return vectors

    def placement_hint(
        self, task: Task, virtual_claims: Optional[Dict[str, int]] = None
    ) -> Optional[str]:
        """EFT selection over current state, without taking a real claim.

        The same estimated-finish argmin as :meth:`schedule`, so the data
        plane's prefetcher aims where ``schedule`` would most likely send the
        task.  ``virtual_claims`` are overlaid on the endpoint-state vectors'
        claim column for the duration of the query — the same claim-as-you-go
        backlog ``schedule`` itself applies over a batch — and taken off
        again before returning; the scheduler's own claim table is not
        touched.
        """
        context = self.context
        if context is None or not context.endpoint_names():
            return None
        arrays = context.ensure_arrays()
        row = arrays.rows((task,), self.default_execution_time_s)[0]
        vectors = self._endpoint_vectors(arrays)
        vectors.sync(context.endpoint_monitor)
        overlaid = [(name, count) for name, count in (virtual_claims or {}).items() if count]
        for name, count in overlaid:
            vectors.add_claim(name, count)
        try:
            finish = vectors.finish_row(arrays.exec_matrix[row], arrays.staging_matrix[row])
        finally:
            for name, count in overlaid:
                vectors.add_claim(name, -count)
        names = arrays.endpoint_names
        mask = self._selection_mask(self._current_plan(), task, names, self._warm_mask(names))
        if mask is not None:
            finish = np.where(mask, finish, np.inf)
        return names[int(np.argmin(finish))]

    # --------------------------------------------------------- delay mechanism
    def should_dispatch(self, task: Task) -> bool:
        if not self.uses_delay_mechanism:
            return True
        context = self._require_context()
        endpoint = task.assigned_endpoint
        if endpoint is None:
            return False
        # Dispatch only when the (mocked) endpoint can start the task now.
        return context.endpoint_monitor.free_capacity(endpoint) >= task.cores

    def on_task_dispatched(self, task: Task, endpoint: str) -> None:
        super().on_task_dispatched(task, endpoint)
        self._pending_target.pop(task.task_id, None)

    # ------------------------------------------------------------ rescheduling
    def reschedule(self, pending_tasks: Sequence[Task]) -> List[Placement]:
        """Move pending tasks toward endpoints with idle capacity (§IV-D).

        Only tasks that have not been dispatched yet are offered by the
        engine.  The delay mechanism is what makes this pool large enough to
        be useful — staged tasks waiting in the client queue can still move.

        The pass is *incremental*: its inputs (endpoint state, claims,
        priorities, predictions, the pending set and its targets) are
        fingerprinted, and when nothing moved since a pass that made no
        moves, the pass is provably another no-op and is skipped outright.
        Endpoint-dynamics events (crash / rejoin / churn) bump the monitor's
        state version, so changed endpoints re-open the pass immediately.
        """
        if not self.supports_rescheduling or not pending_tasks:
            return []
        context = self._require_context()
        if not context.endpoint_names():
            return []
        fingerprint = self._reschedule_fingerprint(context, pending_tasks)
        if fingerprint == self._resched_noop_fingerprint:
            return []
        moves = self._reschedule_pass(context, pending_tasks)
        self._resched_noop_fingerprint = None if moves else fingerprint
        return moves

    def _reschedule_fingerprint(
        self, context: SchedulingContext, pending_tasks: Sequence[Task]
    ) -> Tuple:
        monitor = context.endpoint_monitor
        plan = self._current_plan()
        return (
            tuple((t.task_id, t.assigned_endpoint) for t in pending_tasks),
            self._priority_epoch,
            self._claims_version,
            monitor.state_version,
            monitor.hardware_version,
            context.execution_profiler.prediction_version,
            getattr(context.transfer_profiler, "prediction_version", 0),
            _remote_file.location_version(),
            # A new placement plan changes the candidate filtering, so a
            # pass under it is not a proven no-op of the previous pass.
            None if plan is None else (plan.generation, plan.solved_at),
        )

    def _reschedule_pass(
        self, context: SchedulingContext, pending_tasks: Sequence[Task]
    ) -> List[Placement]:
        monitor = context.endpoint_monitor
        arrays = context.ensure_arrays()
        ordered = self._ordered_by_priority(pending_tasks, "reschedule")
        # rows() first: it rebuilds the index when the endpoint set changed,
        # and the state vectors must be validated against the rebuilt columns.
        rows = arrays.rows(ordered, self.default_execution_time_s)
        vectors = self._endpoint_vectors(arrays)
        vectors.sync(monitor)
        free = vectors.free_capacity()
        # Spare capacity per endpoint beyond what is already heading there:
        # a snapshot at pass start, decremented per move (claims released
        # mid-pass do not re-open it).
        spare = np.maximum(free - vectors.claimed, 0)
        if self._capacity_slice is not None:
            # Serving-layer slice: the same bound ``unclaimed_free_capacity``
            # applies, over the whole snapshot.
            bounds = np.array(
                [self.capacity_slice_for(name) for name in arrays.endpoint_names],
                dtype=spare.dtype,
            )
            spare = np.minimum(spare, bounds)
        if not (spare > 0).any():
            return []
        exec_matrix = arrays.exec_matrix
        stag_matrix = arrays.staging_matrix
        names = arrays.endpoint_names
        plan = self._current_plan()
        warm_mask = self._warm_mask(names)
        moves: List[Placement] = []
        for position, task in enumerate(ordered):
            current = task.assigned_endpoint
            if current is None:
                continue
            column = arrays.endpoint_index(current)
            if column is None:
                # Unknown endpoint: surface the monitor's own EndpointError.
                monitor.free_capacity(current)
                continue
            # Only steal tasks whose current endpoint cannot start them now.
            if free[column] >= task.cores:
                continue
            candidates = spare > 0
            candidates[column] = False
            if not candidates.any():
                break
            if warm_mask is not None and (candidates & warm_mask).any():
                candidates = candidates & warm_mask
            roots = self._input_roots(plan, task)
            if roots:
                if current in roots:
                    # Already next to a planned replica of its inputs:
                    # stealing it away forfeits the warm copy the plan paid
                    # to establish for a purely local queueing gain.
                    continue
                rmask = np.fromiter(
                    (name in roots for name in names), dtype=bool, count=len(names)
                )
                if (candidates & rmask).any():
                    candidates = candidates & rmask
            row = rows[position]
            finish = vectors.finish_row(exec_matrix[row], stag_matrix[row])
            current_finish = finish[column]
            best_column = int(np.argmin(np.where(candidates, finish, np.inf)))
            best_finish = finish[best_column]
            if best_finish >= current_finish:
                continue
            spare[best_column] -= 1
            best = names[best_column]
            self.release_claim(current)
            self.claim(best, 1)
            self._pending_target[task.task_id] = best
            self.rescheduled_count += 1
            moves.append(
                Placement(
                    task_id=task.task_id,
                    endpoint=best,
                    estimated_finish_s=float(best_finish),
                )
            )
        return moves

    def on_capacity_changed(self) -> None:
        """Capacity changes are handled by the next re-scheduling pass."""
