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

from itertools import repeat
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dag import Task, TaskGraph, task_id_of
from repro.data import remote_file as _remote_file
from repro.sched.base import Placement, Scheduler, SchedulingContext
from repro.sched.vector import EndpointStateVectors

__all__ = ["DHAScheduler"]

_file_id = attrgetter("file_id")
_NO_ROOTS: frozenset = frozenset()
#: Entry cap of each per-plan memo (input roots, root masks); reaching it
#: clears that memo.
_PLAN_MEMO_CAP = 4096


class DHAScheduler(Scheduler):
    """Priority-driven, heterogeneity-aware hybrid scheduler."""

    name = "dha"
    uses_delay_mechanism = True
    supports_rescheduling = True
    #: Execution time (s) assumed for a task no profiler can predict yet.
    default_execution_time_s = 1.0

    def __init__(
        self,
        *,
        enable_delay_mechanism: bool = True,
        enable_rescheduling: bool = True,
    ) -> None:
        super().__init__()
        self.uses_delay_mechanism = enable_delay_mechanism
        self.supports_rescheduling = enable_rescheduling
        self._priorities: Dict[str, float] = {}
        #: Number of placements moved by the re-scheduling mechanism.
        self.rescheduled_count = 0
        #: Generation of the priority map; part of the sort-cache key.
        self._priority_epoch = 0
        #: Last priority-sorted orderings per consumer ("schedule" /
        #: "reschedule"): re-sorting is skipped while the offered tasks and
        #: the priorities are unchanged (the dirty flag is the epoch moving).
        self._order_cache: Dict[str, Tuple[Tuple, List[Task]]] = {}
        #: Running ``max`` of each task's successors' priorities (:meth:`_sweep`).
        self._best_successor: Dict[str, float] = {}
        #: Sorts actually performed (tests assert the cache short-circuits).
        self.sort_count = 0
        #: Fingerprint of the inputs of the last re-scheduling pass that
        #: moved nothing; an identical fingerprint proves an identical no-op.
        self._resched_noop_fingerprint: Optional[Tuple] = None
        #: ``(plan, endpoint names, warm mask, root masks by root set)`` of the
        #: last :meth:`_plan_masks`, and ``(plan, roots by input file ids)`` of
        #: the last :meth:`_input_roots`: a plan is immutable, so what is
        #: derived from it is derived once per plan object.
        self._warm_cache: Optional[Tuple] = None
        self._roots_cache: Optional[Tuple] = None

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
            # A full sweep starts from fresh maps so entries for tasks no
            # longer in the graph cannot accumulate across workflows.
            self._priorities = {}
            self._best_successor = {}
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
        While every unprioritised task is a seed (the engine hands over each
        growth window whole) no successor can join, so the walk follows
        predecessor edges only: O(slice), not O(successors of the slice).
        """
        priorities = self._priorities
        affected = {t.task_id: t for t in new_tasks if t._store is graph.store}
        unprioritised_seeds = sum(1 for task_id in affected if task_id not in priorities)
        scan_successors = len(graph) - len(priorities) > unprioritised_seeds
        stack = list(affected.values())
        while stack:
            task = stack.pop()
            if scan_successors:
                for successor in task.successors:
                    if successor.task_id not in affected and successor.task_id not in priorities:
                        affected[successor.task_id] = successor
                        stack.append(successor)
            for parent in task.predecessors:
                if parent.task_id not in affected:
                    affected[parent.task_id] = parent
                    stack.append(parent)
        out_degree = dict.fromkeys(affected, 0)
        for task in affected.values():
            for parent in task.predecessors:
                if parent.task_id in out_degree:
                    out_degree[parent.task_id] += 1
        order = sorted(
            (affected[task_id] for task_id, degree in out_degree.items() if not degree),
            key=task_id_of,
        )
        for task in order:
            for parent in task.predecessors:
                if parent.task_id in out_degree:
                    out_degree[parent.task_id] -= 1
                    if out_degree[parent.task_id] == 0:
                        order.append(parent)
        return order

    def _sweep(self, context: SchedulingContext, order: Sequence[Task]) -> None:
        """Eq. 2 over ``order`` (successors first).

        ``d`` and ``w`` of the whole slice come from one batched row-mean
        over the dense prediction matrices; the recursion itself reads and
        writes plain floats.  Each task's ``max`` over its successors is kept
        running; only a successor that held it and went down forces a rescan.
        """
        if context.endpoint_monitor.endpoint_count:
            arrays = context.ensure_arrays()
            w, d = arrays.row_means(arrays.rows(order, self.default_execution_time_s))
            base = (d + w).tolist()
        else:
            # No endpoint is monitored yet: there is nothing to average over.
            base = [self.default_execution_time_s] * len(order)
        priorities = self._priorities
        running = self._best_successor
        store_priority = context.graph.store.priority
        for position, task in enumerate(order):
            task_id = task.task_id
            best = running.get(task_id)
            if best is None:
                best = max(
                    map(priorities.get, map(task_id_of, task.successors), repeat(0.0)),
                    default=0.0,
                )
                if task.successors:
                    running[task_id] = best
            value = base[position] + best
            previous = priorities.get(task_id, 0.0)
            priorities[task_id] = value
            store_priority[task._row] = value
            for parent in task.predecessors:
                held = running.get(parent.task_id, value)
                if value > held:
                    running[parent.task_id] = value
                elif value < held <= previous:  # held the maximum, went down
                    del running[parent.task_id]

    def priority(self, task_id: str) -> float:
        return self._priorities.get(task_id, 0.0)

    def _ordered_by_priority(self, tasks: Sequence[Task], slot: str) -> List[Task]:
        """``tasks`` by descending priority, then task id, with a dirty-flag
        cache.

        The sort is skipped while the offered tasks and the priority map are
        both unchanged (same task objects in the same order, same epoch) —
        re-scheduling passes and repeated pumps over an unchanged ready set
        hit this constantly.  The key holds the tasks as a tuple, compared
        element by element by identity: an unchanged re-scheduling pool
        arrives as the very tuple cached last time and compares in O(1).

        The order is the stable sort on ``(-priority, task_id)``, built as
        a stable sort by id and then, unless every priority is equal (tasks
        of one kind often are), a stable descending sort by priority (which
        ``reverse=True`` keeps stable; priorities are finite).  Their keys
        are read by C-level callables, not a Python frame per task.
        """
        members = tuple(tasks)
        key = (members, self._priority_epoch)
        cached = self._order_cache.get(slot)
        if cached is not None and cached[0] == key:
            return cached[1]
        self.sort_count += 1
        ordered = sorted(members, key=task_id_of)
        if len(ordered) > 1:
            priorities = list(map(self._priorities.get, map(task_id_of, ordered), repeat(0.0)))
            if min(priorities) != max(priorities):
                by_priority = sorted(
                    range(len(ordered)), key=priorities.__getitem__, reverse=True
                )
                ordered = list(map(ordered.__getitem__, by_priority))
        self._order_cache[slot] = (key, ordered)
        return ordered

    # -------------------------------------------------------------- scheduling
    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        context = self._require_context()
        missing = [t for t in ready_tasks if t.task_id not in self._priorities]
        if missing:
            self._compute_priorities(missing)
        if not context.endpoint_monitor.endpoint_count:
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
        warm_mask = self._warm_mask(plan, names)
        placements: List[Placement] = []
        for position, task in enumerate(ordered):
            row = rows[position]
            finish = vectors.finish_row(exec_matrix[row], stag_matrix[row])
            mask = self._selection_mask(plan, task, names, warm_mask)
            if mask is not None:
                # A fresh row, and never an all-False mask: the chosen
                # column keeps its estimate.
                finish[~mask] = np.inf
            column = int(finish.argmin())
            # Claim as you go: the placement reaches the store only when the
            # engine applies it, after this batch.
            vectors.claimed[column] += 1
            placements.append(
                Placement(
                    task_id=task.task_id,
                    endpoint=names[column],
                    estimated_finish_s=float(finish[column]),
                )
            )
        return placements

    def _input_roots(self, plan, task: Task) -> frozenset:
        """The plan replica roots of ``task``'s input files (may be empty).

        A task reading hot datasets the plan rooted somewhere runs cheapest
        next to those replicas: selection restricts the EFT sweep to these
        endpoints while at least one survives the plan-warm filter, which is
        what turns the plan's per-file roots into co-located
        consumers (the split-penalty term of the solver objective assumes
        shared consumers follow the roots).

        Memoised per plan object and input file ids: the consumers of one
        hot dataset share one entry, and a new plan object starts afresh.
        """
        files = task.input_files
        if plan is None or not plan.replica_roots or not files:
            return _NO_ROOTS
        cached = self._roots_cache
        if cached is None or cached[0] is not plan:
            cached = self._roots_cache = (plan, {})
        memo = cached[1]
        key = tuple(map(_file_id, files))
        roots = memo.get(key)
        if roots is None:
            found = set(map(plan.replica_roots.get, key))
            found.discard(None)
            roots = frozenset(found)
            if len(memo) >= _PLAN_MEMO_CAP:
                memo.clear()
            memo[key] = roots
        return roots

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
        it.  Filter order: the plan-warm restriction (``warm_mask``, which
        is :meth:`_warm_mask` of ``plan`` over ``names``) first, then the
        root-affinity restriction (:meth:`_input_roots`) while it leaves at
        least one candidate; the combined masks come from the same per-plan
        cache as ``warm_mask``.
        """
        roots = self._input_roots(plan, task)
        if not roots:
            return warm_mask
        return self._root_masks(plan, roots, names)[1]

    def _plan_masks(self, plan, names: Sequence[str]) -> Optional[Tuple]:
        """``(plan, names, warm mask, root masks)`` of ``plan`` over
        ``names`` (None without a plan), derived once per plan object and
        endpoint list; the masks in it are read-only."""
        if plan is None:
            return None
        cached = self._warm_cache
        if cached is not None and cached[0] is plan and cached[1] == names:
            return cached
        mask = None
        warm = plan.warm_endpoints
        if warm:
            mask = np.fromiter((name in warm for name in names), dtype=bool, count=len(names))
            if not mask.any() or mask.all():
                mask = None
            else:
                mask.flags.writeable = False
        cached = self._warm_cache = (plan, list(names), mask, {})
        return cached

    def _warm_mask(self, plan, names: Sequence[str]) -> Optional[np.ndarray]:
        """Boolean plan-warm mask of ``plan`` over ``names``.

        Returns None when there is no plan, when no listed endpoint is warm
        (selection falls back to the plain paper EFT sweep over all of them),
        or when every endpoint is warm (the restriction is a no-op) — the
        caller then takes the plain argmin.  The mask is cached per plan
        object and endpoint list and is read-only: callers combine it into
        new arrays, never in place.
        """
        cached = self._plan_masks(plan, names)
        return None if cached is None else cached[2]

    def _root_masks(self, plan, roots: frozenset, names: Sequence[str]) -> Tuple:
        """``(root mask, selection mask)`` of a task whose inputs ``plan``
        roots at ``roots``: which of ``names`` are roots, and what
        :meth:`_selection_mask` restricts selection to.  Cached with the
        plan-warm mask (same plan object, same endpoint list); read-only.
        """
        warm_mask, memo = self._plan_masks(plan, names)[2:]
        masks = memo.get(roots)
        if masks is None:
            rmask = np.fromiter((name in roots for name in names), dtype=bool, count=len(names))
            rmask.flags.writeable = False
            if warm_mask is None:
                selection = rmask if rmask.any() else None
            else:
                selection = warm_mask & rmask
                if selection.any():
                    selection.flags.writeable = False
                else:
                    selection = warm_mask
            if len(memo) >= _PLAN_MEMO_CAP:
                memo.clear()
            masks = memo[roots] = (rmask, selection)
        return masks

    def _endpoint_vectors(self, arrays):
        """The incremental endpoint-state arrays, rebuilt on topology change."""
        vectors = self._vectors
        if vectors is None or vectors.names != arrays.endpoint_names:
            context = self.context
            vectors = EndpointStateVectors(
                context.endpoint_monitor, context.graph.store, arrays.endpoint_names
            )
            self._vectors = vectors
        return vectors

    def placement_hint(
        self, task: Task, virtual_claims: Optional[Dict[str, int]] = None
    ) -> Optional[str]:
        """EFT selection over current state, without claiming anything.

        The same estimated-finish argmin as :meth:`schedule`, so the data
        plane's prefetcher aims where ``schedule`` would most likely send the
        task.  ``virtual_claims`` are overlaid on the endpoint-state vectors'
        claim column for the duration of the query — the same claim-as-you-go
        backlog ``schedule`` itself applies over a batch — and taken off
        again before returning.
        """
        context = self.context
        if context is None or not context.endpoint_monitor.endpoint_count:
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
        plan = self._current_plan()
        mask = self._selection_mask(plan, task, names, self._warm_mask(plan, names))
        if mask is not None:
            finish[~mask] = np.inf
        return names[int(finish.argmin())]

    # --------------------------------------------------------- delay mechanism
    def dispatch_allowance(self, endpoint: str) -> Optional[int]:
        if not self.uses_delay_mechanism:
            return None
        # Dispatch only what the (mocked) endpoint can start now.
        return self._require_context().endpoint_monitor.free_capacity(endpoint)

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
        Every input but the pending set is a version counter; the pending set
        is the offered tasks as a tuple, and the engine hands an unchanged
        pool over as the very tuple it offered last time (see
        :mod:`repro.engine.periodic`), so checking a no-op costs O(1), not
        O(pending).
        """
        if not self.supports_rescheduling or not pending_tasks:
            return []
        context = self._require_context()
        if not context.endpoint_monitor.endpoint_count:
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
            # The offered tasks, in order (compared by identity), and every
            # change of a task's target (``TaskStore.set_endpoint``).
            tuple(pending_tasks),
            context.graph.store.pending_version,
            self._priority_epoch,
            self._slice_version,
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
        """One walk of the pending tasks in priority order (§IV-D).

        A task is examined — its prediction rows resolved and its finish
        times compared — only once its current endpoint cannot start it and
        another endpoint has spare capacity for it; most of a large delay
        pool never gets that far, so its rows are never filled.
        """
        monitor = context.endpoint_monitor
        arrays = context.ensure_arrays()
        default = self.default_execution_time_s
        ordered = self._ordered_by_priority(pending_tasks, "reschedule")
        # rows() first: it rebuilds the index when the endpoint set changed,
        # and the state vectors must be validated against the rebuilt columns.
        arrays.rows((), default)
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
        names = arrays.endpoint_names
        plan = self._current_plan()
        warm_mask = self._warm_mask(plan, names)
        moves: List[Placement] = []
        for task in ordered:
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
                rmask = self._root_masks(plan, roots, names)[0]
                if (candidates & rmask).any():
                    candidates = candidates & rmask
            # Resolved per examined task: a row added here may grow the
            # matrices, so they are read after it.
            row = arrays.rows((task,), default)[0]
            finish = vectors.finish_row(arrays.exec_matrix[row], arrays.staging_matrix[row])
            current_finish = finish[column]
            finish[~candidates] = np.inf
            best_column = int(finish.argmin())
            best_finish = finish[best_column]
            if best_finish >= current_finish:
                continue
            spare[best_column] -= 1
            # The claim moves with the task; the store sees the move when
            # the engine applies it, after this pass.
            vectors.claimed[column] -= 1
            vectors.claimed[best_column] += 1
            self.rescheduled_count += 1
            moves.append(
                Placement(
                    task_id=task.task_id,
                    endpoint=names[best_column],
                    estimated_finish_s=float(best_finish),
                )
            )
        return moves
