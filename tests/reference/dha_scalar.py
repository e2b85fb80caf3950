"""§IV-D as the paper writes it — the executable specification of DHA and HEFT.

One task and one endpoint at a time: upward-rank priorities from per-endpoint
averages, greedy earliest-estimated-finish selection, the re-scheduling pass
over a spare-capacity table, HEFT's offline list schedule.  The product
(``repro.sched.dha`` / ``repro.sched.heft``) decides the same things over
dense arrays; the property tests in ``tests/sched/test_vector_equivalence.py``
and the whole runs in ``tests/scenarios/test_reference_runs.py`` hold it to
these loops bit for bit.  Nothing under ``src/`` imports this module: tests
inject the classes through the engine's ``scheduler=`` argument or by
patching ``repro.sched._REGISTRY``.

Predictions are read straight from the profilers on every query (they memoize
by value themselves), so with mocking disabled every estimate re-reads the
service through ``EndpointMonitor.mock`` — the §IV-B ablation's definition.
"""

from typing import Dict, List, Optional, Sequence

from repro.core.dag import Task
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
    """DHA's decisions as scalar loops; everything else is the product's."""

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

    # -------------------------------------------------------------- scheduling
    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        self._require_context()
        missing = [t for t in ready_tasks if t.task_id not in self._priorities]
        if missing:
            self._compute_priorities(missing)
        placements: List[Placement] = []
        for task in self._ordered_by_priority(ready_tasks, "schedule"):
            endpoint, finish = self._select_endpoint(task)
            if endpoint is None:
                continue
            self.claim(endpoint, 1)
            self._pending_target[task.task_id] = endpoint
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
            self.release_claim(current)
            self.claim(best, 1)
            self._pending_target[task.task_id] = best
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
