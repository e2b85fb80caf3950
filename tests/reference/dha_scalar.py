"""§IV-D as the paper writes it — the executable specification of DHA and HEFT.

One task and one endpoint at a time: upward-rank priorities from per-endpoint
averages, greedy earliest-estimated-finish selection, the re-scheduling pass
over a spare-capacity table, HEFT's offline list schedule.  The bookkeeping
around the pass is the product's as it was before it went to version
counters: the no-op fingerprint is a tuple over every pending task's id and
target, the priority order a sort keyed by a lambda and cached by id tuple,
and plan roots are re-derived per task.  The product
(``repro.sched.dha`` / ``repro.sched.heft``) decides the same things over
dense arrays; the property tests in ``tests/sched/test_vector_equivalence.py``
and the whole runs in ``tests/scenarios/test_reference_runs.py`` hold it to
these loops bit for bit.  Nothing under ``src/`` imports this module: tests
inject the classes through the engine's ``scheduler=`` argument or by
patching ``repro.sched._REGISTRY``.

The claims — tasks placed on an endpoint and not yet dispatched — are a
table kept by hand, as §IV-D describes them: taken when the scheduler places
a task, moved with a re-scheduling move, and told about every placement and
dispatch it did not make itself (:meth:`ReferenceDHAScheduler.note_placed`
and :meth:`~ReferenceDHAScheduler.note_left`, which
:meth:`~ReferenceDHAScheduler.observe` wires into an engine).  The product reads the task store's count instead; the
differential tests assert the two agree.

Predictions are read straight from the profilers on every query (they memoize
by value themselves), so with mocking disabled every estimate re-reads the
service through ``EndpointMonitor.mock`` — the §IV-B ablation's definition.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dag import Task
from repro.data import remote_file as _remote_file
from repro.engine.events import TaskFailed, TaskPlaced
from repro.sched.base import Placement, SchedulingContext
from repro.sched.dha import DHAScheduler
from repro.sched.heft import HEFTScheduler

__all__ = [
    "ReferenceDHAScheduler",
    "ReferenceHEFTScheduler",
    "average_execution_time",
    "average_staging_time",
    "predicted_execution_time",
]


def predicted_execution_time(
    context: SchedulingContext, task: Task, endpoint: str, default: float = 1.0
) -> float:
    """Predicted execution time of ``task`` on ``endpoint`` (seconds)."""
    mock = context.endpoint_monitor.mock(endpoint)
    predicted = context.execution_profiler.predict_execution_time(
        task.name, context.estimated_input_mb(task), mock.hardware_features(), default=None
    )
    if predicted is None:
        # No observations yet: scale the default by relative hardware speed so
        # heterogeneity-aware decisions remain sensible during warm-up.
        predicted = default / max(context.speed_factors.get(endpoint, 1.0), 1e-9)
    return predicted


def average_execution_time(context: SchedulingContext, task: Task, default: float = 1.0) -> float:
    """Mean predicted execution time across all endpoints (DHA's ``w_i``)."""
    names = context.endpoint_names()
    if not names:
        return default
    times = [predicted_execution_time(context, task, ep, default) for ep in names]
    return float(sum(times) / len(times))


def average_staging_time(context: SchedulingContext, task: Task) -> float:
    """Mean predicted staging time across all endpoints (DHA's ``d_i``)."""
    names = context.endpoint_names()
    if not names:
        return 0.0
    times = [context.predicted_staging_time(task, ep) for ep in names]
    return float(sum(times) / len(times))


class ReferenceDHAScheduler(DHAScheduler):
    """DHA's decisions as scalar loops over a hand-kept claim table;
    everything else is the product's."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: Claims per endpoint, and the endpoint each claimed task is headed to.
        self._claims: Dict[str, int] = {}
        self._headed: Dict[str, str] = {}
        #: Bumped on every claim change (part of the no-op fingerprint).
        self._claims_version = 0
        #: Set by :meth:`observe`: the table is then complete, and every
        #: scheduling pass first checks it against the task store.
        self._observing = False

    # ----------------------------------------------------------------- claims
    def claimed(self, endpoint: str) -> int:
        return self._claims.get(endpoint, 0)

    def note_placed(self, task_id: str, endpoint: str) -> None:
        """``task_id`` is headed to ``endpoint`` now: its claim moves there
        (or is taken, for a task that held none)."""
        previous = self._headed.get(task_id)
        if previous == endpoint:
            return
        if previous is not None:
            self._claims[previous] -= 1
        self._headed[task_id] = endpoint
        self._claims[endpoint] = self._claims.get(endpoint, 0) + 1
        self._claims_version += 1

    def note_left(self, task_id: str) -> None:
        """``task_id`` was dispatched, or failed before it was: release its
        claim."""
        endpoint = self._headed.pop(task_id, None)
        if endpoint is not None:
            self._claims[endpoint] -= 1
            self._claims_version += 1

    def observe(self, engine) -> None:
        """Keep the table from ``engine``: its placements and terminal
        failures as announced on its bus, and each dispatch as it happens
        (the prefetcher asks for hints within a dispatch round, before the
        round's ``TasksDispatched`` is announced)."""
        engine.bus.subscribe(TaskPlaced, lambda e: self.note_placed(e.task_id, e.endpoint))
        engine.bus.subscribe(TaskFailed, lambda e: self.note_left(e.task_id))
        dispatch = engine.dispatch.dispatch

        def dispatched(task, *args):
            self.note_left(task.task_id)
            dispatch(task, *args)

        engine.dispatch.dispatch = dispatched
        self._observing = True

    def _check_claims(self) -> None:
        if self._observing:
            store = self._require_context().graph.store
            table = {name: count for name, count in self._claims.items() if count}
            assert table == store.undispatched_by_endpoint(), (table, store.undispatched_by_endpoint())

    # ------------------------------------------------------------- priorities
    def _sweep(self, context: SchedulingContext, order: Sequence[Task]) -> None:
        graph = context.graph
        priorities = self._priorities
        for task in order:
            d = average_staging_time(context, task)
            w = average_execution_time(context, task, self.default_execution_time_s)
            succ = graph.successors(task.task_id)
            best = max((priorities.get(s.task_id, 0.0) for s in succ), default=0.0)
            priorities[task.task_id] = d + w + best
            task.priority = priorities[task.task_id]

    def _ordered_by_priority(self, tasks: Sequence[Task], slot: str) -> List[Task]:
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

    def _reschedule_fingerprint(
        self, context: SchedulingContext, pending_tasks: Sequence[Task]
    ) -> Tuple:
        monitor = context.endpoint_monitor
        plan = self._current_plan()
        endpoint = context.graph.store.endpoint
        return (
            tuple((t.task_id, endpoint[t._row]) for t in pending_tasks),
            self._priority_epoch,
            self._claims_version,
            self._slice_version,
            monitor.state_version,
            monitor.hardware_version,
            context.execution_profiler.prediction_version,
            getattr(context.transfer_profiler, "prediction_version", 0),
            _remote_file.location_version(),
            None if plan is None else (plan.generation, plan.solved_at),
        )

    @staticmethod
    def _input_roots(plan, task: Task) -> frozenset:
        """The plan replica roots of ``task``'s input files, re-derived on
        every call (the product memoises them per plan object)."""
        if plan is None or not plan.replica_roots or not task.input_files:
            return frozenset()
        roots = {plan.root_for(f.file_id) for f in task.input_files}
        roots.discard(None)
        return frozenset(roots)

    # -------------------------------------------------------------- scheduling
    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        self._require_context()
        self._check_claims()
        missing = [t for t in ready_tasks if t.task_id not in self._priorities]
        if missing:
            self._compute_priorities(missing)
        placements: List[Placement] = []
        for task in self._ordered_by_priority(ready_tasks, "schedule"):
            endpoint, finish = self._select_endpoint(task)
            if endpoint is None:
                continue
            self.note_placed(task.task_id, endpoint)
            placements.append(
                Placement(task_id=task.task_id, endpoint=endpoint, estimated_finish_s=finish)
            )
        return placements

    def _select_endpoint(self, task: Task) -> tuple[Optional[str], float]:
        """Greedy earliest-estimated-finish-time selection.

        With a placement plan live, the candidate set is restricted to the
        plan-warm endpoints while at least one exists, then to the plan roots
        of the task's inputs while one of those survives; with no plan the
        selection is the plain paper EFT sweep.
        """
        context = self._require_context()
        candidates = context.endpoint_names()
        plan = self._current_plan()
        if plan is not None and plan.warm_endpoints:
            warm = [n for n in candidates if plan.is_warm(n)]
            if warm:
                candidates = warm
        roots = self._input_roots(plan, task)
        if roots:
            rooted = [n for n in candidates if n in roots]
            if rooted:
                candidates = rooted
        best_endpoint: Optional[str] = None
        best_finish = float("inf")
        for endpoint in candidates:
            finish = self._estimated_finish(context, task, endpoint)
            if finish < best_finish:
                best_finish = finish
                best_endpoint = endpoint
        return best_endpoint, best_finish

    def _estimated_finish(self, context: SchedulingContext, task: Task, endpoint: str) -> float:
        mock = context.endpoint_monitor.mock(endpoint)
        staging = context.predicted_staging_time(task, endpoint)
        execution = predicted_execution_time(
            context, task, endpoint, self.default_execution_time_s
        )
        workers = max(1, mock.active_workers)
        idle = mock.idle_workers
        backlog = mock.pending_tasks + self.claimed(endpoint) - idle
        wait = max(0, backlog) * execution / workers
        if idle <= 0:
            # Every worker is busy: expect to wait about half a task's service
            # time for one to free up before the backlog even starts draining.
            wait += 0.5 * execution
        return max(staging, wait) + execution

    def placement_hint(
        self, task: Task, virtual_claims: Optional[Dict[str, int]] = None
    ) -> Optional[str]:
        """EFT selection with ``virtual_claims`` overlaid on the claim table
        for the duration of the query and restored before returning."""
        if self.context is None or not self.context.endpoint_names():
            return None
        overlaid = []
        if virtual_claims:
            for endpoint, count in virtual_claims.items():
                if count:
                    self._claims[endpoint] = self._claims.get(endpoint, 0) + count
                    overlaid.append((endpoint, count))
        try:
            endpoint, _ = self._select_endpoint(task)
        finally:
            for name, count in overlaid:
                self._claims[name] -= count
        return endpoint

    # ------------------------------------------------------------ rescheduling
    def _reschedule_pass(
        self, context: SchedulingContext, pending_tasks: Sequence[Task]
    ) -> List[Placement]:
        self._check_claims()
        moves: List[Placement] = []
        # Spare capacity per endpoint beyond what is already heading there.
        spare: Dict[str, int] = {
            name: self.unclaimed_free_capacity(name) for name in context.endpoint_names()
        }
        if not any(count > 0 for count in spare.values()):
            return []

        plan = self._current_plan()
        for task in self._ordered_by_priority(pending_tasks, "reschedule"):
            current = task.assigned_endpoint
            if current is None:
                continue
            # Only steal tasks whose current endpoint cannot start them now.
            if context.endpoint_monitor.free_capacity(current) >= task.cores:
                continue
            candidates = [name for name, free in spare.items() if free > 0 and name != current]
            if not candidates:
                break
            if plan is not None and plan.warm_endpoints:
                warm = [name for name in candidates if plan.is_warm(name)]
                if warm:
                    candidates = warm
            roots = self._input_roots(plan, task)
            if roots:
                if current in roots:
                    # Already next to a planned replica of its inputs:
                    # stealing it away forfeits the warm copy the plan paid
                    # to establish for a purely local queueing gain.
                    continue
                rooted = [name for name in candidates if name in roots]
                if rooted:
                    candidates = rooted
            current_finish = self._estimated_finish(context, task, current)
            best = min(
                candidates,
                key=lambda name: self._estimated_finish(context, task, name),
            )
            best_finish = self._estimated_finish(context, task, best)
            if best_finish >= current_finish:
                continue
            spare[best] -= 1
            # Release the claim on the old endpoint and take one on the new.
            self.note_placed(task.task_id, best)
            self.rescheduled_count += 1
            moves.append(
                Placement(task_id=task.task_id, endpoint=best, estimated_finish_s=best_finish)
            )
        return moves


class ReferenceHEFTScheduler(HEFTScheduler):
    """HEFT's offline pass, re-deriving every term per task × endpoint."""

    def _plan(self) -> None:
        context = self._require_context()
        graph = context.graph
        order = graph.topological_order()

        # Upward ranks (same recursion as DHA priorities).
        ranks: Dict[str, float] = {}
        for task in reversed(order):
            w = average_execution_time(context, task, self.default_execution_time_s)
            d = average_staging_time(context, task)
            succ = [ranks[s.task_id] for s in graph.successors(task.task_id)]
            ranks[task.task_id] = w + d + (max(succ) if succ else 0.0)
        self._ranks = ranks

        endpoints = context.endpoint_names()
        if not endpoints:
            return
        workers = {
            name: max(1, context.endpoint_monitor.active_workers(name)) for name in endpoints
        }
        ready = {name: 0.0 for name in endpoints}
        finish_time: Dict[str, float] = {}

        for task in sorted(order, key=lambda t: (-ranks[t.task_id], t.task_id)):
            if task.task_id in self._assignment:
                continue
            best_endpoint = None
            best_finish = float("inf")
            preds = graph.predecessors(task.task_id)
            for endpoint in endpoints:
                execution = predicted_execution_time(
                    context, task, endpoint, self.default_execution_time_s
                )
                staging = context.predicted_staging_time(task, endpoint)
                pred_ready = max(
                    (finish_time.get(p.task_id, 0.0) for p in preds), default=0.0
                )
                start = max(ready[endpoint], pred_ready + staging)
                finish = start + execution
                if finish < best_finish:
                    best_finish = finish
                    best_endpoint = endpoint
            assert best_endpoint is not None
            self._assignment[task.task_id] = best_endpoint
            finish_time[task.task_id] = best_finish
            # A pool of W workers absorbs a task's execution time at 1/W of a
            # single processor's occupancy.
            execution = predicted_execution_time(
                context, task, best_endpoint, self.default_execution_time_s
            )
            ready[best_endpoint] += execution / workers[best_endpoint]
        self._endpoint_ready = ready
