"""Deterministic local-search solver for the global placement problem.

The problem is capacitated facility location in the paper-testbed's terms:

* **facilities** are endpoints — opening one means keeping it warm (a
  per-facility opening cost models the price of holding a site hot), and an
  open facility should receive at least a minimum useful worker count (the
  *lower bound* of Li 2018);
* **clients** are hot datasets — files several pending tasks will read —
  assigned to a *replica root* under the endpoint's hard staging-storage
  capacity (Kao 2021's hard-capacity regime);
* the **objective** is in seconds, every term derived from the prediction
  machinery the schedulers already trust: a parallel-execution estimate over
  the open set, the bottleneck facility's hot-data service load, the cost of
  establishing each root replica, a split penalty for co-accessed files
  rooted apart (the extra transfer a shared consumer forces), and the
  opening costs.

The search is plain first-improvement local search over four move kinds —
``open`` / ``close`` / ``swap`` on the warm set, ``reassign`` on the roots —
with the candidate order shuffled by the dedicated "placement" RNG stream.
Every tie in the greedy construction breaks on sorted names, so the solve is
a pure function of (problem, RNG state): byte-identical across repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.rounding import largest_remainder_split
from repro.placement.plan import PlacementPlan

__all__ = ["HotFile", "PlacementProblem", "solve_placement"]

#: Stop after this many full improvement passes (each pass tries every move
#: once in shuffled order; convergence is almost always earlier).
_MAX_PASSES = 8

#: An accepted move must improve the objective by more than this (seconds),
#: so float noise cannot make the search wander between equal solutions.
_EPSILON = 1e-9

#: Cost (seconds) of keeping one facility warm.
_OPEN_COST_S = 2.0

#: Lower bound: workers a warm facility is targeted at least.
_MIN_WORKERS = 1


@dataclass(frozen=True)
class HotFile:
    """One hot dataset: a file with enough pending consumers to plan for."""

    file_id: str
    size_mb: float
    consumers: int
    #: Seconds to establish a replica at each endpoint (0 where present).
    pull_cost: Mapping[str, float]
    #: consumers x mean predicted execution seconds at each endpoint.
    serve_cost: Mapping[str, float]


@dataclass
class PlacementProblem:
    """Everything one solve needs, snapshotted from the live run."""

    #: Online endpoints, in deterministic (topology) order.
    endpoints: List[str]
    max_workers: Dict[str, int]
    #: Remaining staging-storage budget at each endpoint in MB (None = inf).
    capacity_mb: Dict[str, Optional[float]]
    #: Mean predicted seconds per pending task at each endpoint.
    perf: Dict[str, float]
    #: Pending (unplaced) task count across every live workflow.
    demand: int
    hot_files: List[HotFile] = field(default_factory=list)
    #: Shared-consumer counts for co-accessed hot-file pairs (ids sorted).
    co_access: Dict[Tuple[str, str], int] = field(default_factory=dict)


def solve_placement(
    problem: PlacementProblem,
    rng: np.random.Generator,
    *,
    generation: int,
    now: float,
) -> PlacementPlan:
    """Solve ``problem`` into an immutable :class:`PlacementPlan`."""
    endpoints = list(problem.endpoints)
    if not endpoints:
        return PlacementPlan(generation=generation, solved_at=now)

    if problem.demand <= 0 and not problem.hot_files:
        # Nothing to place: with no demand signal the objective degenerates
        # to pure opening cost and the search would collapse the warm set to
        # a single arbitrary facility — which the schedulers' warm filter
        # would then treat as a directive.  Return the neutral plan instead:
        # every endpoint warm (no steering), no targets, no roots.
        return PlacementPlan(
            generation=generation,
            solved_at=now,
            warm_endpoints=tuple(sorted(endpoints)),
        )

    state = _State(problem)
    state.greedy_init()
    state.local_search(rng)

    warm = tuple(sorted(state.warm))
    targets = _worker_targets(problem, warm)
    return PlacementPlan(
        generation=generation,
        solved_at=now,
        warm_endpoints=warm,
        worker_targets=targets,
        replica_roots=dict(sorted(state.roots.items())),
        objective=state.objective(),
    )


def _worker_targets(problem: PlacementProblem, warm: Tuple[str, ...]) -> Dict[str, int]:
    """Apportion the pending demand over the warm set, lower-bounded.

    The split is proportional to each facility's service *rate*
    (workers / seconds-per-task) via the shared largest-remainder helper, so
    it rounds exactly the way the elastic scaler and the fair-share
    arbitration round.  The facility lower bound is enforced afterwards:
    while demand allows, every warm facility is targeted at least
    ``_MIN_WORKERS``, taking from the largest target deterministically.
    """
    if not warm:
        return {}
    caps = {e: max(1, int(problem.max_workers.get(e, 1))) for e in warm}
    total_cap = sum(caps.values())
    demand = min(max(0, int(problem.demand)), total_cap)
    weights = {
        e: caps[e] / max(problem.perf.get(e, 1.0), 1e-9) for e in warm
    }
    targets = largest_remainder_split(demand, weights, caps=caps)
    floor = _MIN_WORKERS
    if demand >= floor * len(warm):
        for name in sorted(warm):
            while targets[name] < min(floor, caps[name]):
                donor = max(
                    sorted(warm), key=lambda e: (targets[e] - floor, e != name)
                )
                if targets[donor] <= floor:
                    break
                targets[donor] -= 1
                targets[name] += 1
    return {e: targets[e] for e in sorted(warm)}


class _State:
    """Mutable search state: the warm set, the roots, and cached loads."""

    def __init__(self, problem: PlacementProblem) -> None:
        self.p = problem
        self.warm: set = set(problem.endpoints)
        #: file_id -> root endpoint (only feasible assignments appear).
        self.roots: Dict[str, str] = {}
        self._files = {f.file_id: f for f in problem.hot_files}
        self._used_mb: Dict[str, float] = {e: 0.0 for e in problem.endpoints}

    # ------------------------------------------------------------ feasibility
    def _fits(self, file: HotFile, endpoint: str) -> bool:
        capacity = self.p.capacity_mb.get(endpoint)
        if capacity is None:
            return True
        if file.pull_cost.get(endpoint, 0.0) == 0.0:
            return True  # already resident: rooting it occupies no new space
        return self._used_mb[endpoint] + file.size_mb <= capacity

    def _charge(self, file: HotFile, endpoint: str, sign: float) -> None:
        if file.pull_cost.get(endpoint, 0.0) != 0.0:
            self._used_mb[endpoint] += sign * file.size_mb

    # ------------------------------------------------------------- objective
    def objective(self) -> float:
        p = self.p
        total = _OPEN_COST_S * len(self.warm)

        rate = sum(
            p.max_workers.get(e, 1) / max(p.perf.get(e, 1.0), 1e-9)
            for e in self.warm
        )
        if rate > 0.0:
            total += p.demand / rate
        elif p.demand:
            total += float(p.demand)  # degenerate warm set: heavily penalized

        load: Dict[str, float] = {}
        for file_id, root in self.roots.items():
            file = self._files[file_id]
            total += file.pull_cost.get(root, 0.0)
            load[root] = load.get(root, 0.0) + file.serve_cost.get(root, 0.0)
        if load:
            total += max(
                seconds / max(1, p.max_workers.get(e, 1))
                for e, seconds in load.items()
            )

        for (fa, fb), _shared in p.co_access.items():
            ra, rb = self.roots.get(fa), self.roots.get(fb)
            if ra is None or rb is None or ra == rb:
                continue
            # A consumer of both files runs at one root and forces one extra
            # transfer of the other file: the cheaper direction's pull cost.
            total += min(
                self._files[fa].pull_cost.get(rb, 0.0),
                self._files[fb].pull_cost.get(ra, 0.0),
            )

        unrooted = len(self._files) - len(self.roots)
        if unrooted:
            # An unrooted hot file falls back to on-demand greedy staging:
            # in the worst case every consumer's endpoint pulls its own copy,
            # so the penalty is consumer-weighted — the search only leaves
            # files unrooted when capacity genuinely forces it.
            total += sum(
                max(f.pull_cost.values(), default=0.0) * max(1, f.consumers)
                for f in self._files.values()
                if f.file_id not in self.roots
            )
        return total

    # --------------------------------------------------------------- moves
    def greedy_init(self) -> None:
        """Largest files first, each to its cheapest feasible warm endpoint."""
        ordered = sorted(
            self.p.hot_files, key=lambda f: (-f.size_mb, f.file_id)
        )
        for file in ordered:
            best = self._cheapest_root(file)
            if best is not None:
                self.roots[file.file_id] = best
                self._charge(file, best, +1.0)

    def _cheapest_root(self, file: HotFile) -> Optional[str]:
        best, best_cost = None, float("inf")
        for endpoint in sorted(self.warm):
            if not self._fits(file, endpoint):
                continue
            cost = file.pull_cost.get(endpoint, 0.0) + file.serve_cost.get(
                endpoint, 0.0
            ) / max(1, self.p.max_workers.get(endpoint, 1))
            if cost < best_cost:
                best, best_cost = endpoint, cost
        return best

    def local_search(self, rng: np.random.Generator) -> None:
        current = self.objective()
        for _ in range(_MAX_PASSES):
            moves = self._moves()
            if not moves:
                return
            improved = False
            for index in rng.permutation(len(moves)):
                move = moves[index]
                undo = self._apply(move)
                if undo is None:
                    continue
                candidate = self.objective()
                if candidate < current - _EPSILON:
                    current = candidate
                    improved = True
                else:
                    undo()
            if not improved:
                return

    def _moves(self) -> List[Tuple]:
        moves: List[Tuple] = []
        cold = sorted(set(self.p.endpoints) - self.warm)
        warm = sorted(self.warm)
        for endpoint in cold:
            moves.append(("open", endpoint))
        if len(warm) > 1:
            for endpoint in warm:
                moves.append(("close", endpoint))
        for closed in cold:
            for opened in warm:
                moves.append(("swap", closed, opened))
        for file_id in sorted(self._files):
            for endpoint in warm:
                if self.roots.get(file_id) != endpoint:
                    moves.append(("reassign", file_id, endpoint))
        return moves

    def _apply(self, move: Tuple):
        """Apply ``move``; return an undo closure, or None when infeasible."""
        kind = move[0]
        if kind == "open":
            return self._apply_open(move[1])
        if kind == "close":
            return self._apply_close(move[1])
        if kind == "swap":
            undo_open = self._apply_open(move[1])
            if undo_open is None:
                return None
            undo_close = self._apply_close(move[2])
            if undo_close is None:
                undo_open()
                return None

            def undo() -> None:
                undo_close()
                undo_open()

            return undo
        file_id, endpoint = move[1], move[2]
        return self._apply_reassign(file_id, endpoint)

    def _apply_open(self, endpoint: str):
        if endpoint in self.warm:
            return None
        self.warm.add(endpoint)

        def undo() -> None:
            self.warm.discard(endpoint)

        return undo

    def _apply_close(self, endpoint: str):
        if endpoint not in self.warm or len(self.warm) <= 1:
            return None
        displaced = sorted(
            fid for fid, root in self.roots.items() if root == endpoint
        )
        self.warm.discard(endpoint)
        previous: Dict[str, Optional[str]] = {}
        for fid in displaced:
            file = self._files[fid]
            previous[fid] = endpoint
            self._charge(file, endpoint, -1.0)
            new_root = self._cheapest_root(file)
            if new_root is None:
                del self.roots[fid]
            else:
                self.roots[fid] = new_root
                self._charge(file, new_root, +1.0)

        def undo() -> None:
            for fid, old_root in previous.items():
                file = self._files[fid]
                current = self.roots.get(fid)
                if current is not None:
                    self._charge(file, current, -1.0)
                self.roots[fid] = old_root
                self._charge(file, old_root, +1.0)
            self.warm.add(endpoint)

        return undo

    def _apply_reassign(self, file_id: str, endpoint: str):
        if endpoint not in self.warm:
            return None
        file = self._files[file_id]
        old_root = self.roots.get(file_id)
        if old_root == endpoint:
            return None
        if old_root is not None:
            self._charge(file, old_root, -1.0)
        if not self._fits(file, endpoint):
            if old_root is not None:
                self._charge(file, old_root, +1.0)
            return None
        self.roots[file_id] = endpoint
        self._charge(file, endpoint, +1.0)

        def undo() -> None:
            self._charge(file, endpoint, -1.0)
            if old_root is None:
                del self.roots[file_id]
            else:
                self.roots[file_id] = old_root
                self._charge(file, old_root, +1.0)

        return undo
