"""The placement service: owns the plan lifecycle across the run.

One service instance serves one federation: the
:class:`~repro.serving.federation.Federation` builds it on its list of live
engines, which the service reads in place, and on its data plane.  The
service:

* snapshots the live state (pending demand, hot datasets, online endpoints,
  remaining storage budgets, prediction means) into a
  :class:`~repro.placement.solver.PlacementProblem` and re-solves it every
  :attr:`PlacementService.interval_s`;
* tracks an **invalidation generation** mirroring the endpoint monitor's
  ``state_version`` idiom: a crash marks the endpoint offline and bumps the
  generation, a rejoin re-admits it, worker churn bumps without touching the
  offline set — a stale generation forces a re-solve at the next periodic
  check regardless of the cadence.  The federation reports each dynamics
  event once, whatever the tenant count, and re-solves at once when some
  tenant has started (``Federation.react``);
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

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dag import TaskState, task_id_of
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

    #: Simulated seconds between two cadence solves (a dynamics invalidation
    #: forces one at the next periodic check regardless).
    interval_s: float = 30.0

    def __init__(self, config, engines: List[object], data_manager) -> None:
        self.config = config
        self._rng = derive_stream(config.random_seed, "placement")
        #: The federation's live engines (its list, not a copy), whose graphs
        #: feed the demand / hot-file scan, and its data plane.
        self._engines = engines
        self._data_manager = data_manager
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
    def current_plan(self) -> Optional[PlacementPlan]:
        return self._plan

    @property
    def generation(self) -> int:
        return self._generation

    # ----------------------------------------------------------- invalidation
    def mark_offline(self, endpoint: str) -> None:
        """A crash: exclude the endpoint from solves and invalidate the plan
        (an endpoint already offline changes nothing)."""
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

    # ---------------------------------------------------------------- solving
    def maybe_resolve(self, now: float) -> Optional[PlacementPlan]:
        """Re-solve when the cadence elapsed or the generation moved on."""
        if self._last_solved is not None:
            fresh = self._solved_generation == self._generation
            if fresh and now - self._last_solved < self.interval_s:
                return self._plan
        return self.resolve(now)

    def next_resolve_at(self) -> float:
        """Earliest clock time :meth:`maybe_resolve` will solve again:
        at once while the plan is missing or its generation is stale."""
        if self._last_solved is None or self._solved_generation != self._generation:
            return float("-inf")
        return self._last_solved + self.interval_s

    def resolve(self, now: float) -> Optional[PlacementPlan]:
        """Solve unconditionally against the current live state."""
        engines = [e for e in self._engines if e.context is not None]
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
        self._replicate(plan)
        return plan

    # ------------------------------------------------------------ replication
    def _replicate(self, plan: PlacementPlan) -> None:
        """Push each hot dataset toward its plan root (prefetch class).

        Speculative like every prefetch: losing the replica to eviction or a
        crash is safe, demand staging re-stages on placement.  Issued largest
        file first so the scarce prefetch bandwidth goes to the datasets
        whose WAN pull would hurt the most.
        """
        if not plan.replica_roots:
            return
        rooted = [
            (file, plan.replica_roots[file.file_id])
            for file in self._hot_file_objects
            if file.file_id in plan.replica_roots
        ]
        rooted.sort(key=lambda pair: (-pair[0].size_mb, pair[0].file_id))
        for file, root in rooted:
            if self._data_manager.prefetch(
                file, root, priority=float(len(self._consumers[file.file_id]))
            ):
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
        capacity_mb = self._remaining_capacity(self._data_manager, names)

        demand = 0
        perf_rows: List[np.ndarray] = []
        self._consumers: Dict[str, List] = {}
        self._hot_file_objects: List = []
        file_objects: Dict[str, object] = {}
        owner_context: Dict[str, object] = {}
        co_access: Dict[Tuple[str, str], int] = {}

        for engine in engines:
            ctx = engine.context
            pending = sorted(engine.graph.in_state(*_PENDING_STATES), key=task_id_of)
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
            # Replication costs what staging the file there would.
            for name, seconds in zip(names, ctx.file_staging_costs(file, names)):
                column = arrays.endpoint_index(name)
                serve[name] = float(exec_rows[:, column].mean()) * len(consumers)
                pull[name] = float(seconds)
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
        store = data_manager.store
        capacity: Dict[str, Optional[float]] = {}
        for name in names:
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
            # numpy builds a fresh dict on every ``state`` read: no copy needed.
            "rng": self._rng.bit_generator.state,
        }
