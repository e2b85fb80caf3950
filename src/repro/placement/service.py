"""The placement service: owns the plan lifecycle across the run.

One service instance serves one federation: :class:`~repro.serving.manager.
WorkflowManager` builds it and shares it across every tenant engine.  The
service:

* snapshots the live state (pending demand, hot datasets, online endpoints,
  remaining storage budgets, prediction means) into a
  :class:`~repro.placement.solver.PlacementProblem` and re-solves it on the
  configured cadence (:attr:`~repro.core.config.Config.placement_interval_s`);
* tracks an **invalidation generation** mirroring the endpoint monitor's
  ``state_version`` idiom: a crash marks the endpoint offline and bumps the
  generation, a rejoin re-admits it, worker churn bumps without touching the
  offline set — a stale generation forces a re-solve at the next periodic
  check regardless of the cadence;
* on adopting a new plan, **proactively replicates** hot datasets toward
  their plan roots through the data plane's prefetch class, so consumers
  find warm replicas where the plan wants them instead of each endpoint
  pulling its own copy on demand;
* draws from the dedicated ``"placement"`` RNG stream (derived from
  :attr:`Config.random_seed` exactly as :class:`~repro.sim.rng.RngRegistry`
  would derive it), and captures plan + stream state for the durability
  layer's snapshot/replay proof.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dag import TaskState
from repro.placement.plan import PlacementPlan
from repro.placement.solver import HotFile, PlacementProblem, solve_placement
from repro.sim.rng import derive_stream

__all__ = ["PlacementService"]

#: A file is a *hot dataset* when at least this many pending tasks read it…
_MIN_CONSUMERS = 2
#: …and it is large enough that where its replica lives matters (small
#: intermediates move in milliseconds; planning roots for them only churns
#: the transfer log without changing any schedule).
_MIN_HOT_MB = 16.0
#: Pending-task sample cap per workflow for the per-endpoint perf means.
_PERF_SAMPLE = 512
#: Consumer sample cap per hot file for its serve-cost row.
_CONSUMER_SAMPLE = 64

#: States counted as pending demand: every task not yet running at its
#: endpoint.  SCHEDULED/STAGING/STAGED tasks hold a placement but are still
#: rescheduling-eligible and their inputs still drive replica demand, so
#: excluding them would collapse the problem mid-run while work remains.
_PENDING_STATES = (
    TaskState.PENDING,
    TaskState.READY,
    TaskState.SCHEDULED,
    TaskState.STAGING,
    TaskState.STAGED,
)


class PlacementService:
    """Periodic global placement solves + dynamics invalidation."""

    def __init__(self, config, rng: Optional[np.random.Generator] = None) -> None:
        self.config = config
        self.interval_s = float(config.placement_interval_s)
        self._rng = (
            rng
            if rng is not None
            else derive_stream(config.random_seed, "placement")
        )
        self._engines: List[object] = []
        self._plan: Optional[PlacementPlan] = None
        self._generation = 0
        self._solved_generation = -1
        self._last_solved: Optional[float] = None
        self._offline: set = set()
        #: Hot-file bookkeeping of the latest solve (drives replication).
        self._consumers: Dict[str, List] = {}
        self._hot_file_objects: List = []

        # Counters (tests / durability capture / diagnostics).
        self.solve_count = 0
        self.replications_issued = 0

    # ------------------------------------------------------------- providers
    def attach(self, engine) -> None:
        """Register an engine whose graph feeds the demand/hot-file scan."""
        if engine not in self._engines:
            self._engines.append(engine)

    def detach(self, engine) -> None:
        """Forget a retired tenant engine (open-loop serving: keeps the
        attached set O(live tenants), not O(all-time tenants))."""
        if engine in self._engines:
            self._engines.remove(engine)

    def current_plan(self) -> Optional[PlacementPlan]:
        return self._plan

    def plan_token(self) -> Tuple[int, int]:
        """Cheap identity of the current plan (re-schedule fingerprints)."""
        return (self._generation, self.solve_count)

    @property
    def generation(self) -> int:
        return self._generation

    # ----------------------------------------------------------- invalidation
    def mark_offline(self, endpoint: str) -> None:
        """A crash: exclude the endpoint from solves and invalidate the plan.

        Set-deduped — in the serving layer every tenant engine forwards the
        same crash event to the shared service, and only the first arrival
        may bump the generation.
        """
        if endpoint in self._offline:
            return
        self._offline.add(endpoint)
        self._generation += 1

    def mark_online(self, endpoint: str) -> None:
        """A rejoin: re-admit the endpoint and invalidate the plan."""
        if endpoint not in self._offline:
            return
        self._offline.discard(endpoint)
        self._generation += 1

    def bump(self) -> None:
        """Capacity changed (worker churn, scaling): invalidate the plan."""
        self._generation += 1

    def offline_endpoints(self) -> List[str]:
        return sorted(self._offline)

    # ---------------------------------------------------------------- solving
    def maybe_resolve(self, now: float, engine) -> Optional[PlacementPlan]:
        """Re-solve when the cadence elapsed or the generation moved on."""
        if self._last_solved is not None:
            fresh = self._solved_generation == self._generation
            if fresh and now - self._last_solved < self.interval_s:
                return self._plan
        return self.resolve(now, engine)

    def next_resolve_at(self) -> float:
        """Earliest clock time :meth:`maybe_resolve` will solve again:
        at once while the plan is missing or its generation is stale."""
        if self._last_solved is None or self._solved_generation != self._generation:
            return float("-inf")
        return self._last_solved + self.interval_s

    def resolve(self, now: float, engine) -> Optional[PlacementPlan]:
        """Solve unconditionally against the current live state."""
        self.attach(engine)
        engines = [e for e in self._engines if getattr(e, "context", None) is not None]
        if not engines:
            return self._plan
        problem = self._build_problem(engines)
        generation = self._generation
        plan = solve_placement(
            problem, self._rng, generation=generation, now=now
        )
        self._plan = plan
        self._last_solved = now
        self._solved_generation = generation
        self.solve_count += 1
        self._replicate(plan, engines[0].data_manager)
        return plan

    # ------------------------------------------------------------ replication
    def _replicate(self, plan: PlacementPlan, data_manager) -> None:
        """Push each hot dataset toward its plan root (prefetch class).

        Speculative like every prefetch: losing the replica to eviction or a
        crash is safe, demand staging re-stages on placement.  Issued largest
        file first so the scarce prefetch bandwidth goes to the datasets
        whose WAN pull would hurt the most.
        """
        prefetch = getattr(data_manager, "prefetch", None)
        if prefetch is None or not plan.replica_roots:
            return
        rooted = [
            (file, plan.replica_roots[file.file_id])
            for file in self._hot_file_objects
            if file.file_id in plan.replica_roots
        ]
        rooted.sort(key=lambda pair: (-pair[0].size_mb, pair[0].file_id))
        for file, root in rooted:
            if prefetch(file, root, priority=float(len(self._consumers[file.file_id]))):
                self.replications_issued += 1

    # -------------------------------------------------------- problem building
    def _build_problem(self, engines) -> PlacementProblem:
        context = engines[0].context
        monitor = engines[0].endpoint_monitor
        names = [
            name
            for name in context.endpoint_names()
            if name not in self._offline
        ]
        max_workers = {
            name: max(1, int(monitor.mock(name).max_workers)) for name in names
        }
        capacity_mb = self._remaining_capacity(engines[0].data_manager, names)

        demand = 0
        perf_rows: List[np.ndarray] = []
        self._consumers: Dict[str, List] = {}
        self._hot_file_objects: List = []
        file_objects: Dict[str, object] = {}
        owner_context: Dict[str, object] = {}
        co_access: Dict[Tuple[str, str], int] = {}

        for engine in engines:
            ctx = engine.context
            pending = sorted(
                (t for t in engine.graph if t.state in _PENDING_STATES),
                key=lambda t: t.task_id,
            )
            demand += len(pending)
            if not pending:
                continue
            arrays = ctx.ensure_arrays()
            sample = pending[:_PERF_SAMPLE]
            rows = arrays.rows(sample, 1.0)
            perf_rows.append(arrays.exec_matrix[rows])
            for task in pending:
                hot_inputs = []
                for file in task.input_files:
                    if file.size_mb < _MIN_HOT_MB or not file.locations:
                        continue
                    fid = file.file_id
                    if fid not in file_objects:
                        file_objects[fid] = file
                        owner_context[fid] = ctx
                        self._consumers[fid] = []
                    self._consumers[fid].append(task)
                    hot_inputs.append(fid)
                hot_inputs.sort()
                for i, fa in enumerate(hot_inputs):
                    for fb in hot_inputs[i + 1 :]:
                        co_access[(fa, fb)] = co_access.get((fa, fb), 0) + 1

        perf = self._perf_means(names, perf_rows, context)
        hot_files = []
        for fid in sorted(file_objects):
            consumers = self._consumers[fid]
            if len(consumers) < _MIN_CONSUMERS:
                continue
            file = file_objects[fid]
            ctx = owner_context[fid]
            arrays = ctx.ensure_arrays()
            rows = arrays.rows(consumers[:_CONSUMER_SAMPLE], 1.0)
            exec_rows = arrays.exec_matrix[rows]
            serve: Dict[str, float] = {}
            pull: Dict[str, float] = {}
            for name in names:
                column = arrays.endpoint_index(name)
                serve[name] = float(exec_rows[:, column].mean()) * len(consumers)
                pull[name] = self._pull_cost(ctx, file, name)
            hot_files.append(
                HotFile(
                    file_id=fid,
                    size_mb=float(file.size_mb),
                    consumers=len(consumers),
                    pull_cost=pull,
                    serve_cost=serve,
                )
            )
        hot_ids = {f.file_id for f in hot_files}
        co_access = {
            pair: count for pair, count in co_access.items() if pair[0] in hot_ids and pair[1] in hot_ids
        }
        self._hot_file_objects = [file_objects[f.file_id] for f in hot_files]

        return PlacementProblem(
            endpoints=names,
            max_workers=max_workers,
            capacity_mb=capacity_mb,
            perf=perf,
            demand=demand,
            hot_files=hot_files,
            co_access=dict(sorted(co_access.items())),
        )

    @staticmethod
    def _pull_cost(ctx, file, endpoint: str) -> float:
        """Seconds to establish a replica of ``file`` at ``endpoint``.

        Mirrors the per-file branch of
        :meth:`~repro.sched.base.SchedulingContext.predicted_staging_time`:
        zero where a replica is already resident, otherwise the cheapest
        online source (multi-source with the data plane, primary replica
        without), so the solver costs replication against the same candidate
        set the transfer scheduler will actually use.
        """
        if file.available_at(endpoint) or file.size_mb <= 0:
            return 0.0
        profiler = ctx.transfer_profiler
        if ctx.config.enable_dataplane:
            sources = ctx.staging_sources(file)
            if not sources:
                return 0.0
            return float(
                min(
                    profiler.predict_transfer_time(src, endpoint, file.size_mb)
                    for src in sources
                )
            )
        source = file.primary_location
        if source is None:
            return 0.0
        return float(profiler.predict_transfer_time(source, endpoint, file.size_mb))

    def _perf_means(self, names, perf_rows, context) -> Dict[str, float]:
        if not perf_rows:
            return {name: 1.0 for name in names}
        stacked = np.vstack(perf_rows)
        arrays = context.ensure_arrays()
        perf = {}
        for name in names:
            column = arrays.endpoint_index(name)
            perf[name] = float(stacked[:, column].mean())
        return perf

    @staticmethod
    def _remaining_capacity(data_manager, names) -> Dict[str, Optional[float]]:
        store = getattr(data_manager, "store", None)
        capacity: Dict[str, Optional[float]] = {}
        for name in names:
            if store is None:
                capacity[name] = None
                continue
            budget = store.capacity_mb(name)
            if budget is None:
                capacity[name] = None
            else:
                capacity[name] = max(0.0, float(budget) - float(store.usage_mb(name)))
        return capacity

    # ------------------------------------------------------------- durability
    def capture_state(self) -> Dict[str, object]:
        """JSON-native manifest for the durability snapshot sections."""
        return {
            "generation": int(self._generation),
            "solves": int(self.solve_count),
            "offline": sorted(self._offline),
            "replications": int(self.replications_issued),
            "plan": self._plan.describe() if self._plan is not None else None,
            "rng": copy.deepcopy(self._rng.bit_generator.state),
        }
