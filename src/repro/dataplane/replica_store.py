"""Capacity-bounded replica store — the data plane's storage layer.

Every endpoint of the federation gets a staging-storage budget (GB).  The
store tracks which replicas occupy that budget, *pins* the inputs of
in-flight tasks so staging can never be undone from under a task, and frees
space with a pluggable eviction policy when an arriving replica would
overflow the budget.

Evicting a replica calls :meth:`~repro.data.remote_file.RemoteFile.remove_location`,
which renews that file's location stamp — the vector
:class:`~repro.sched.vector.PredictionIndex` stamps a staging row with its
task's input files' stamps, so scheduler predictions about the file
invalidate automatically when the store reshapes the replica catalog.

Two invariants bound what eviction may do:

* **pinned replicas are untouchable** — a file pinned by any in-flight task
  at an endpoint stays there until every pinning task releases it;
* **sole replicas are untouchable** — evicting the last copy of a file would
  lose data the workflow may still need (task outputs cannot be recomputed),
  so only files with another live replica are candidates — *unless* the file
  has been marked **expendable** (every consumer of the producing task
  completed; the engine's output-lifecycle hook decides), in which case even
  the last copy may be dropped to reclaim space.

When pinned + sole-replica bytes alone exceed the budget the store runs in
*overflow*: the excess is tracked (:attr:`ReplicaStore.peak_overflow_mb`)
rather than enforced, mirroring a real staging area that must hold the
working set of the tasks currently running.

Which replicas the two invariants leave open to eviction is kept as a
per-endpoint set, updated where one of its inputs moves (a pin, a release,
the file gaining or losing a replica anywhere, an endpoint crashing or
rejoining) — an arrival at an over-budget endpoint that holds nothing
evictable costs one empty-set lookup, not a scan of the endpoint's replicas.
Only an endpoint with a budget ever evicts, and budgets are fixed when the
store is built, so the set exists only at budgeted endpoints: pins, releases
and replica moves at an unbounded endpoint update no eviction state, and a
file is watched for location changes only once it has a replica at a
budgeted endpoint.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.data.remote_file import RemoteFile, bump_location_version

__all__ = [
    "CostBenefitEviction",
    "EvictionPolicy",
    "LRUEviction",
    "Replica",
    "ReplicaStore",
    "create_eviction_policy",
]


@dataclass
class Replica:
    """One copy of a file occupying an endpoint's staging storage."""

    file: RemoteFile
    endpoint: str
    size_mb: float
    #: Monotonic access stamp (insertion/touch order, deterministic).
    last_touch: int = 0
    #: Tasks currently pinning this replica (their inputs live here).
    pinned_by: Set[str] = field(default_factory=set)
    #: True when the replica arrived through the prefetch pipeline.
    prefetched: bool = False
    #: True once a demand staging actually consumed the prefetched replica.
    used: bool = False

    @property
    def pinned(self) -> bool:
        return bool(self.pinned_by)


class EvictionPolicy(ABC):
    """Orders eviction candidates; lower keys are evicted first."""

    name: str = "base"

    @abstractmethod
    def key(self, replica: Replica, refetch_cost_s: float) -> Tuple:
        """Sort key for ``replica`` (``refetch_cost_s`` = cheapest re-stage)."""


class LRUEviction(EvictionPolicy):
    """Least-recently-used replicas go first (file id breaks ties)."""

    name = "lru"

    def key(self, replica: Replica, refetch_cost_s: float) -> Tuple:
        return (replica.last_touch, replica.file.file_id)


class CostBenefitEviction(EvictionPolicy):
    """Size-aware cost/benefit: evict cheap-to-refetch bulk first.

    The key is the re-staging cost *per megabyte freed* — a large replica
    with a fast remaining source frees a lot of space for little risk, a
    small replica behind a slow WAN link is kept.  Recency and file id break
    ties deterministically.
    """

    name = "cost_benefit"

    def key(self, replica: Replica, refetch_cost_s: float) -> Tuple:
        cost_per_mb = refetch_cost_s / max(replica.size_mb, 1e-9)
        return (cost_per_mb, replica.last_touch, replica.file.file_id)


def create_eviction_policy(name: str) -> EvictionPolicy:
    if name == "lru":
        return LRUEviction()
    if name == "cost_benefit":
        return CostBenefitEviction()
    raise ValueError(f"unknown eviction policy {name!r}; expected 'lru' or 'cost_benefit'")


#: Callback invoked as ``on_evict(replica)`` after a replica was dropped.
EvictCallback = Callable[[Replica], None]


class ReplicaStore:
    """Per-endpoint replica catalog with budgets, pins and eviction."""

    def __init__(
        self,
        capacity_mb: Optional[Dict[str, Optional[float]]] = None,
        *,
        policy: Optional[EvictionPolicy] = None,
        default_capacity_mb: Optional[float] = None,
        refetch_cost: Optional[Callable[[RemoteFile, str], float]] = None,
        on_evict: Optional[EvictCallback] = None,
    ) -> None:
        self._capacity: Dict[str, Optional[float]] = dict(capacity_mb or {})
        self._default_capacity = default_capacity_mb
        self.policy = policy or LRUEviction()
        self._refetch_cost = refetch_cost or (lambda file, endpoint: 0.0)
        self._on_evict = on_evict
        #: endpoint -> file_id -> replica (insertion ordered, deterministic).
        self._replicas: Dict[str, Dict[str, Replica]] = {}
        #: task_id -> list of (endpoint, file_id) pins held by the task.
        self._pins_by_task: Dict[str, List[Tuple[str, str]]] = {}
        #: (endpoint, file_id) -> tasks that pinned a not-yet-arrived replica.
        self._pending_pins: Dict[Tuple[str, str], Set[str]] = {}
        #: Files whose consumers all completed: sole replicas become fair game.
        self._expendable: Set[str] = set()
        #: Endpoints currently crashed: their replicas survive on disk (a
        #: rejoin brings them back) but are quarantined — they count neither
        #: as eviction backups nor as re-staging sources while down.
        #: Read-only outside the store (:meth:`mark_offline` /
        #: :meth:`mark_online` change it).
        self.offline: Set[str] = set()
        #: Bumped whenever :attr:`offline` changes: replica *reachability*
        #: moved although no file's replica set did.
        self.offline_generation = 0
        #: endpoint -> file_id -> replica, for exactly the replicas eviction
        #: may take: unpinned, still listed at the endpoint by their file, and
        #: either backed up at an online endpoint or expendable.  Keyed by
        #: the budgeted endpoints holding replicas only (an unbounded one
        #: never evicts); created with the endpoint's first replica.
        self._evictable: Dict[str, Dict[str, Replica]] = {}
        self._usage: Dict[str, float] = {}
        self._touch_seq = itertools.count(1)

        # Counters for the metrics collector / benchmarks.
        self.eviction_count = 0
        self.evicted_mb = 0.0
        #: Prefetched replicas evicted before any task read them.
        self.prefetch_wasted = 0
        self.peak_usage_mb: Dict[str, float] = {}
        #: Largest amount by which unevictable (pinned / sole-replica) bytes
        #: ever exceeded an endpoint's budget.
        self.peak_overflow_mb = 0.0
        #: Victim selections run, and evictable replicas they compared.
        self.victim_scans = 0
        self.victim_candidates_examined = 0

    # ---------------------------------------------------------------- queries
    def capacity_mb(self, endpoint: str) -> Optional[float]:
        """Budget of ``endpoint`` in MB (``None`` = unbounded)."""
        if endpoint in self._capacity:
            return self._capacity[endpoint]
        return self._default_capacity

    def usage_mb(self, endpoint: str) -> float:
        return self._usage.get(endpoint, 0.0)

    def replica(self, file_id: str, endpoint: str) -> Optional[Replica]:
        return self._replicas.get(endpoint, {}).get(file_id)

    def replica_count(self, endpoint: str) -> int:
        return len(self._replicas.get(endpoint, {}))

    def endpoints(self) -> List[str]:
        return list(self._replicas)

    # --------------------------------------------------------------- tracking
    def track(self, file: RemoteFile, *, prefetched: bool = False) -> None:
        """Account ``file``'s current replica locations (idempotent).

        Pre-existing replicas (workflow-declared inputs, home copies) are
        charged against the endpoint budget like any arrival: tracking one
        enforces the budget, so an endpoint seeded beyond capacity evicts —
        or records overflow — instead of silently exceeding its budget until
        the next :meth:`admit`.
        """
        if file.size_mb <= 0:
            return
        for endpoint in sorted(file.locations):
            if file.file_id not in self._replicas.get(endpoint, ()):
                self._insert(file, endpoint, prefetched=prefetched)
                if endpoint not in self.offline:
                    self._enforce_budget(endpoint, protect=file.file_id)

    def admit(self, file: RemoteFile, endpoint: str, *, prefetched: bool = False) -> List[Replica]:
        """A replica of ``file`` arrived at ``endpoint``; make room for it.

        Returns the replicas evicted to fit it (possibly empty).  The caller
        is expected to have added ``endpoint`` to ``file.locations`` already
        (the transfer backend does on completion).
        """
        if file.size_mb <= 0:
            return []
        existing = self._replicas.get(endpoint, {}).get(file.file_id)
        if existing is not None:
            existing.last_touch = next(self._touch_seq)
            return []
        self._insert(file, endpoint, prefetched=prefetched)
        if endpoint in self.offline:
            # An in-flight arrival landing on a crashed disk must not evict
            # quarantined replicas promised to survive until rejoin; the
            # budget is settled by mark_online().
            return []
        return self._enforce_budget(endpoint, protect=file.file_id)

    def touch(self, file: RemoteFile, endpoint: str) -> None:
        """Record an access to the replica (recency for LRU)."""
        replica = self._replicas.get(endpoint, {}).get(file.file_id)
        if replica is not None:
            replica.last_touch = next(self._touch_seq)
            replica.used = True

    def mark_expendable(self, file: RemoteFile) -> None:
        """Every consumer of ``file`` finished: its last replica may go too.

        Called by the engine's output-lifecycle hook.  The protection against
        sole-replica eviction exists because intermediate outputs cannot be
        recomputed; once nothing will ever read the file again, holding the
        last copy is pure budget waste.
        """
        if file.file_id not in self._expendable:
            self._expendable.add(file.file_id)
            self._refresh_file(file)

    def is_expendable(self, file_id: str) -> bool:
        return file_id in self._expendable

    # ------------------------------------------------------------- liveness
    def mark_offline(self, endpoint: str) -> None:
        """``endpoint`` crashed: quarantine its replicas until it rejoins.

        Reachability changes invalidate the vector staging matrix's
        file-bearing rows via :attr:`offline_generation` and DHA's
        nothing-moved fingerprint via the global replica-set generation,
        exactly like a catalog change would.
        """
        if endpoint in self.offline:
            return
        self.offline.add(endpoint)
        self._reachability_changed()

    def mark_online(self, endpoint: str) -> None:
        """``endpoint`` rejoined: its surviving replicas are reachable again.

        The budget deferred while the endpoint was down is re-applied now —
        arrivals that landed on the crashed disk never evicted anything (a
        dead machine does not reshape the catalog), so the rejoin settles
        any excess with full knowledge of what is reachable.
        """
        if endpoint not in self.offline:
            return
        self.offline.discard(endpoint)
        self._reachability_changed()
        self._enforce_budget(endpoint, protect=None)

    def is_offline(self, endpoint: str) -> bool:
        return endpoint in self.offline

    def reclaim(self, file: RemoteFile) -> None:
        """A new consumer appeared (dynamic DAG): re-protect the file.

        Closes the window from re-submission onward; a sole replica already
        evicted before the new consumer was submitted is genuinely gone.
        """
        if file.file_id in self._expendable:
            self._expendable.discard(file.file_id)
            self._refresh_file(file)

    # ------------------------------------------------------------------- pins
    def pin(self, file: RemoteFile, endpoint: str, task_id: str) -> None:
        """Pin ``file`` at ``endpoint`` for ``task_id`` (arrivals auto-pin).

        Pinning a file that has not arrived yet is allowed: the pin is
        recorded and applied by :meth:`admit` when the replica lands.
        """
        if file.size_mb <= 0:
            return
        pins = self._pins_by_task.setdefault(task_id, [])
        key = (endpoint, file.file_id)
        if key in pins:
            return
        pins.append(key)
        replica = self._replicas.get(endpoint, {}).get(file.file_id)
        if replica is None:
            # Not there yet: remember the pin; _insert() re-applies it.
            self._pending_pins.setdefault(key, set()).add(task_id)
        else:
            replica.pinned_by.add(task_id)
            replica.last_touch = next(self._touch_seq)
            evictable = self._evictable.get(endpoint)
            if evictable is not None:
                self._refresh(replica, evictable)

    def release_task(self, task_id: str) -> None:
        """Drop every pin held by ``task_id`` (it finished, failed or moved)."""
        pending_pins = self._pending_pins
        for key in self._pins_by_task.pop(task_id, []):
            pending = pending_pins.get(key)
            if pending is not None:
                pending.discard(task_id)
                if not pending:
                    del pending_pins[key]
            endpoint, file_id = key
            replica = self._replicas.get(endpoint, {}).get(file_id)
            if replica is not None:
                replica.pinned_by.discard(task_id)
                evictable = self._evictable.get(endpoint)
                if evictable is not None:
                    self._refresh(replica, evictable)

    def pinned_mb(self, endpoint: str) -> float:
        return float(
            sum(r.size_mb for r in self._replicas.get(endpoint, {}).values() if r.pinned)
        )

    # --------------------------------------------------------------- internal
    def _insert(self, file: RemoteFile, endpoint: str, *, prefetched: bool) -> Replica:
        replica = Replica(
            file=file,
            endpoint=endpoint,
            size_mb=file.size_mb,
            last_touch=next(self._touch_seq),
            prefetched=prefetched,
        )
        pending = self._pending_pins.pop((endpoint, file.file_id), None)
        if pending:
            replica.pinned_by.update(pending)
        replicas = self._replicas.get(endpoint)
        if replicas is None:
            replicas = self._replicas[endpoint] = {}
            if self.capacity_mb(endpoint) is not None:
                self._evictable[endpoint] = {}
        replicas[file.file_id] = replica
        evictable = self._evictable.get(endpoint)
        if evictable is not None:
            file.watch_locations(self._refresh_file)
            self._refresh(replica, evictable)
        usage = self._usage.get(endpoint, 0.0) + replica.size_mb
        self._usage[endpoint] = usage
        if usage > self.peak_usage_mb.get(endpoint, 0.0):
            self.peak_usage_mb[endpoint] = usage
        return replica

    def _enforce_budget(self, endpoint: str, protect: Optional[str]) -> List[Replica]:
        capacity = self.capacity_mb(endpoint)
        if capacity is None:
            return []
        evicted: List[Replica] = []
        while self._usage.get(endpoint, 0.0) > capacity:
            victim = self._select_victim(endpoint, protect)
            if victim is None:
                overflow = self._usage.get(endpoint, 0.0) - capacity
                if overflow > self.peak_overflow_mb:
                    self.peak_overflow_mb = overflow
                break
            self._evict(victim)
            evicted.append(victim)
        return evicted

    def _select_victim(self, endpoint: str, protect: Optional[str]) -> Optional[Replica]:
        self.victim_scans += 1
        candidates = [
            replica
            for file_id, replica in self._evictable.get(endpoint, {}).items()
            if file_id != protect
        ]
        if not candidates:
            return None
        self.victim_candidates_examined += len(candidates)

        def refetch(replica: Replica) -> float:
            # Nothing will ever read an expendable file again: re-staging
            # cost is zero, making it the cheapest possible victim.
            if replica.file.file_id in self._expendable:
                return 0.0
            return self._refetch_cost(replica.file, endpoint)

        # Policy keys end in the unique file id, so the winner does not
        # depend on the order the set is walked in.
        return min(candidates, key=lambda r: self.policy.key(r, refetch(r)))

    # ------------------------------------------------------- evictable index
    def _is_evictable(self, replica: Replica) -> bool:
        file = replica.file
        return (
            not replica.pinned_by
            and file.available_at(replica.endpoint)
            and (
                file.file_id in self._expendable
                or self._has_reachable_backup(replica, replica.endpoint)
            )
        )

    def _refresh(self, replica: Replica, evictable: Dict[str, Replica]) -> None:
        """Re-evaluate one stored replica's membership of ``evictable``, the
        evictable set of its (budgeted) endpoint."""
        if self._is_evictable(replica):
            evictable[replica.file.file_id] = replica
        else:
            evictable.pop(replica.file.file_id, None)

    def _refresh_file(self, file: RemoteFile, moved_at: Optional[str] = None) -> None:
        """Re-evaluate ``file``'s replicas wherever it is listed at a
        budgeted endpoint.

        Doubles as the file's location watcher: a replica appearing at or
        vanishing from ``moved_at`` changes that copy's own availability
        (it may no longer be listed there) and every other copy's backup.
        """
        for endpoint in {*file.locations, moved_at}:
            evictable = self._evictable.get(endpoint)
            if evictable is not None:
                replica = self._replicas[endpoint].get(file.file_id)
                if replica is not None:
                    self._refresh(replica, evictable)

    def _reachability_changed(self) -> None:
        """The offline set moved: any replica's backup may have (dis)appeared."""
        self.offline_generation += 1
        bump_location_version()
        for endpoint, evictable in self._evictable.items():
            for replica in self._replicas[endpoint].values():
                self._refresh(replica, evictable)

    def _has_reachable_backup(self, replica: Replica, endpoint: str) -> bool:
        """Another replica exists at a currently *online* endpoint.

        A copy quarantined at a crashed endpoint must not license evicting
        the only reachable one — until the crash site rejoins, that copy
        cannot serve a re-stage.
        """
        offline = self.offline
        for location in replica.file.locations:
            if location != endpoint and location not in offline:
                return True
        return False

    def _evict(self, replica: Replica) -> None:
        self._replicas[replica.endpoint].pop(replica.file.file_id, None)
        self._evictable[replica.endpoint].pop(replica.file.file_id, None)
        self._usage[replica.endpoint] = max(
            0.0, self._usage.get(replica.endpoint, 0.0) - replica.size_mb
        )
        replica.file.remove_location(replica.endpoint)
        self.eviction_count += 1
        self.evicted_mb += replica.size_mb
        if replica.prefetched and not replica.used:
            self.prefetch_wasted += 1
        if self._on_evict is not None:
            self._on_evict(replica)
