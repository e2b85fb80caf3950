"""The data plane — the data layer of the system (§IV-E).

For every task the scheduler places on an endpoint, :class:`DataPlane` works
out which input files are missing there, moves them, retries failed
attempts (§IV-G) and notifies the orchestration engine when the task's
staging is complete.  It keeps the replica catalog the schedulers query and
the aggregate transfer-volume counters of Tables IV and V, and routes every
file movement through the subsystem's components:

* a :class:`~repro.dataplane.replica_store.ReplicaStore` giving each endpoint
  a storage budget with pinning and pluggable eviction;
* a :class:`~repro.dataplane.transfer_scheduler.TransferScheduler`: per-link
  queues with bounded concurrency, demand/prefetch service classes and
  cross-ticket coalescing of duplicate ``(file, destination)`` requests;
* a :class:`~repro.dataplane.prefetch.Prefetcher` (wired by the engine) that
  pipelines ready-soon tasks' inputs behind their predecessors' execution.

``published=True`` selects the paper's policy — what ``--no-dataplane`` and
the paper case studies run: an unbounded store, FIFO link queues, the source
with the cheapest estimated transfer, a failed attempt retried from another
replica at the tail of its link, a superseded ticket merely marked, no
prefetch and no reaction to endpoint crashes.  The default policy adds:

* bandwidth-aware sources: the replica whose link promises the cheapest
  arrival, discounted by the pressure already queued on it, skipping crashed
  endpoints and preferring the placement plan's replica root;
* priority order within the demand class (the task's DHA upward rank), and
  upgrades of in-queue prefetches that a demand request catches up with;
* supersede cancels queued transfers nobody else is waiting on;
* a crash cancels queued transfers toward the endpoint and quarantines its
  replicas until it rejoins;
* storage budgets with eviction, and prefetching.

Under both policies per-ticket transfer volume goes to *live* tickets only,
so the Table IV/V aggregates cannot double-count a retried transfer.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.exceptions import NoReplicaError, TransferFailedError
from repro.data.manager import StagingTicket, task_namespace
from repro.data.remote_file import RemoteFile
from repro.data.transfer import TransferBackend, TransferRequest, TransferResult
from repro.dataplane.replica_store import ReplicaStore, create_eviction_policy
from repro.dataplane.transfer_scheduler import (
    DEMAND,
    PREFETCH,
    TransferJob,
    TransferScheduler,
)
from repro.sim.kernel import Clock

__all__ = ["DataPlane"]

#: Multi-source selection tolerates a plan replica root costing up to this
#: factor of the true cheapest source before abandoning it.  Small enough
#: that steering never doubles a transfer, large enough to absorb transient
#: link-pressure differences between equivalent replicas.
_ROOT_PREFERENCE_FACTOR = 1.25

StagedCallback = Callable[[StagingTicket], None]


class DataPlane:
    """Stages task inputs through a replica store and a transfer scheduler."""

    def __init__(
        self,
        backend: TransferBackend,
        clock: Clock,
        *,
        mechanism: str = "globus",
        max_concurrent_transfers: int = 4,
        max_retries: int = 3,
        storage_budget_mb: Optional[Dict[str, Optional[float]]] = None,
        default_storage_mb: Optional[float] = None,
        eviction_policy: str = "lru",
        published: bool = False,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.backend = backend
        self.clock = clock
        self.mechanism = mechanism
        self.max_retries = max_retries
        #: The paper's §IV-E policy (see the module docstring); its store
        #: ignores the budgets and never evicts.
        self.published = published
        if published:
            storage_budget_mb = default_storage_mb = None
        self.store = ReplicaStore(
            storage_budget_mb,
            policy=create_eviction_policy(eviction_policy),
            default_capacity_mb=default_storage_mb,
            refetch_cost=self._refetch_cost_s,
            on_evict=self._on_replica_evicted,
        )
        self.transfers = TransferScheduler(
            backend,
            max_concurrent_per_link=max_concurrent_transfers,
            on_done=self._on_job_done,
        )

        self._tickets: Dict[str, StagingTicket] = {}
        self._tickets_by_task: Dict[str, StagingTicket] = {}
        #: Tickets grouped by workflow namespace, maintained incrementally so
        #: :meth:`release_namespace` (streaming-tenant retirement) never scans
        #: every ticket ever issued.
        self._tickets_by_namespace: Dict[str, List[StagingTicket]] = defaultdict(list)
        #: Tickets created but not yet done — kept as a counter so the
        #: metrics sampler's :meth:`active_staging_tasks` is O(1).
        self._open_ticket_count = 0
        #: Staged callbacks by workflow namespace: a finished ticket reaches
        #: its owner's callbacks only.
        self._staged_callbacks: Dict[str, List[StagedCallback]] = defaultdict(list)
        self._transfer_callbacks: List[Callable[[TransferResult, int], None]] = []
        #: Zero-arg callable returning the current placement plan (or None);
        #: multi-source selection prefers a file's plan replica root while
        #: its cost stays within a small factor of the true cheapest source.
        self._plan_provider = None

        # Aggregate statistics (Tables IV/V and Fig. 10).
        self.total_transferred_mb = 0.0
        #: Transfer attempts finished (successful or not).
        self.transfer_count = 0
        self.failed_transfer_count = 0
        self.retry_count = 0
        self.volume_by_pair_mb: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Transfer volume attributed per workflow namespace (multi-tenant
        #: serving; the single-workflow path accumulates under "").
        self.volume_by_namespace_mb: Dict[str, float] = defaultdict(float)

        # Data-plane counters (metrics collector / benchmarks).
        self.cache_hits = 0
        self.cache_misses = 0
        self.prefetch_issued = 0
        self.prefetch_issued_mb = 0.0
        #: Prefetched replicas a demand staging later found already present.
        self.prefetch_hits = 0
        #: Demand requests that caught up with an in-queue/in-flight prefetch.
        self.prefetch_joined = 0
        self.superseded_tickets = 0

    # -------------------------------------------------------------- callbacks
    def add_staged_callback(self, callback: StagedCallback, namespace: str = "") -> None:
        """Register a callback invoked when a ticket of workflow ``namespace``
        finishes (or fails); :meth:`release_namespace` drops it."""
        self._staged_callbacks[namespace].append(callback)

    def add_transfer_callback(self, callback: Callable[[TransferResult, int], None]) -> None:
        """Register a callback invoked per transfer attempt result.

        The callback receives ``(result, concurrency)`` where concurrency is
        the number of transfers that were in flight on the same endpoint pair
        — the feature the transfer profiler trains on.
        """
        self._transfer_callbacks.append(callback)

    def set_plan_provider(self, provider) -> None:
        """Wire the placement service's plan into multi-source selection."""
        self._plan_provider = provider

    # ------------------------------------------------------------------ query
    def missing_files(self, files: Iterable[RemoteFile], endpoint: str) -> List[RemoteFile]:
        """Input files that are not yet present on ``endpoint``."""
        return [f for f in files if f.size_mb > 0 and not f.available_at(endpoint)]

    def bytes_to_move_mb(self, files: Iterable[RemoteFile], endpoint: str) -> float:
        """Data volume that running a task on ``endpoint`` would transfer.

        This is the quantity Locality minimises when it selects an endpoint
        (§IV-D, Fig. 3).
        """
        return float(sum(f.size_mb for f in self.missing_files(files, endpoint)))

    def active_staging_tasks(self) -> int:
        """Number of tasks currently waiting on data staging (Fig. 10)."""
        return self._open_ticket_count

    def ticket_for_task(self, task_id: str) -> Optional[StagingTicket]:
        return self._tickets_by_task.get(task_id)

    # ------------------------------------------------------------------ stats
    @property
    def eviction_count(self) -> int:
        return self.store.eviction_count

    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def prefetch_usefulness(self) -> float:
        """Fraction of issued prefetches that demand staging benefited from."""
        useful = self.prefetch_hits + self.prefetch_joined
        return useful / self.prefetch_issued if self.prefetch_issued else 0.0

    def stats_dict(self) -> Dict[str, float]:
        """Snapshot of the data-plane counters (metrics collector payload);
        empty under the published policy, which reports none."""
        if self.published:
            return {}
        return {
            "bytes_moved_mb": round(self.total_transferred_mb, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate(), 6),
            "evictions": self.store.eviction_count,
            "evicted_mb": round(self.store.evicted_mb, 6),
            "prefetch_issued": self.prefetch_issued,
            "prefetch_issued_mb": round(self.prefetch_issued_mb, 6),
            "prefetch_useful": self.prefetch_hits + self.prefetch_joined,
            "prefetch_wasted": self.store.prefetch_wasted,
            "prefetch_usefulness": round(self.prefetch_usefulness(), 6),
            "cancelled_transfers": self.transfers.cancelled_count,
            "superseded_tickets": self.superseded_tickets,
            "peak_overflow_mb": round(self.store.peak_overflow_mb, 6),
        }

    # ---------------------------------------------------------------- staging
    def stage(
        self,
        task_id: str,
        files: Iterable[RemoteFile],
        destination: str,
        priority: float = 0.0,
    ) -> StagingTicket:
        """Ensure ``files`` are present on ``destination`` for ``task_id``.

        Returns a ticket that is already ``done`` when nothing needs to move.
        ``priority`` (the task's DHA upward rank) orders the resulting
        transfers within the demand class; the published policy's links are
        FIFO and ignore it.
        """
        if self.published:
            priority = 0.0
        previous = self._tickets_by_task.get(task_id)
        if previous is not None:
            # A re-stage drops the previous ticket's pins (only staging
            # pins, so a task's first ticket has none to drop).
            if previous.completed_at is None:
                self._supersede(previous)
            self.store.release_task(task_id)

        namespace = task_namespace(task_id)
        now = self.clock.now
        ticket = StagingTicket(
            task_id=task_id,
            destination=destination,
            namespace=namespace,
            created_at=now,
        )
        self._tickets[ticket.ticket_id] = ticket
        self._tickets_by_task[task_id] = ticket
        self._tickets_by_namespace[namespace].append(ticket)

        sized = [f for f in files if f.size_mb > 0]
        # Pin every input before tracking: track() enforces the destination
        # budget, and a later input's resident home replica must already be
        # pinned (pending pins apply at insert) so an earlier input's
        # tracking cannot evict it out of this very task's working set.
        for file in sized:
            self.store.pin(file, destination, task_id)
        for file in sized:
            self.store.track(file)

        missing = self.missing_files(sized, destination)
        missing_ids = {f.file_id for f in missing}
        for file in sized:
            if file.file_id in missing_ids:
                self.cache_misses += 1
                continue
            self.cache_hits += 1
            replica = self.store.replica(file.file_id, destination)
            if replica is not None and replica.prefetched and not replica.used:
                self.prefetch_hits += 1
            self.store.touch(file, destination)

        if not missing:
            ticket.completed_at = now
            self._notify(ticket)
            return ticket

        self._open_ticket_count += 1
        for file in missing:
            if ticket.failed:
                break  # an earlier input had no surviving replica
            self._join_or_enqueue(file, destination, ticket, priority)
        return ticket

    def prefetch(self, file: RemoteFile, destination: str, priority: float = 0.0) -> bool:
        """Speculatively move ``file`` toward ``destination``; True if issued.

        The published policy never speculates."""
        if self.published:
            return False
        if file.size_mb <= 0 or file.available_at(destination) or not file.locations:
            return False
        offline = self.store.offline
        if destination in offline:
            return False  # never speculate toward a crashed endpoint
        if file.locations <= offline:
            # Every replica is quarantined.  Demand staging falls back to an
            # offline copy because the task cannot proceed otherwise;
            # speculation has no such excuse and simply declines.
            return False
        if self.transfers.active_job(file.file_id, destination) is not None:
            return False
        capacity = self.store.capacity_mb(destination)
        if capacity is not None and file.size_mb > capacity:
            return False  # could never be admitted; do not thrash the store
        self.store.track(file)
        src = self._pick_source(file, destination)
        request = TransferRequest(
            file=file, src=src, dst=destination, mechanism=self.mechanism
        )
        job = TransferJob(
            request=request,
            klass=PREFETCH,
            priority=priority,
            prefetch_origin=True,
            prefetch_priority=priority,
        )
        self.prefetch_issued += 1
        self.prefetch_issued_mb += file.size_mb
        self.transfers.submit(job)
        return True

    def register_output(self, file: RemoteFile, endpoint: str) -> None:
        """Record a produced output and charge it against the endpoint budget."""
        file.add_location(endpoint)
        self.store.admit(file, endpoint)

    # ------------------------------------------------------------- retirement
    def release_namespace(self, namespace: str) -> int:
        """Drop a retired workflow's staging records; returns tickets released.

        Called by the serving layer when a streaming tenant retires: every
        ticket it ever opened (all terminal by then), its per-task indices,
        its pins, its staged callbacks and its attributed-volume entry are
        released so live memory stays O(active tenants), not O(all-time
        tasks); a transfer of its that lands later notifies nobody.  The
        aggregate Table IV/V counters are untouched.
        """
        self._staged_callbacks.pop(namespace, None)
        tickets = self._tickets_by_namespace.pop(namespace, [])
        for ticket in tickets:
            self._tickets.pop(ticket.ticket_id, None)
            if self._tickets_by_task.get(ticket.task_id) is ticket:
                del self._tickets_by_task[ticket.task_id]
            self.store.release_task(ticket.task_id)
        self.volume_by_namespace_mb.pop(namespace, None)
        return len(tickets)

    # --------------------------------------------------------------- dynamics
    def on_endpoint_crashed(self, endpoint: str) -> None:
        """Quarantine the endpoint's replicas and cancel queued transfers to it.

        The replicas survive on disk (a rejoin brings them back — and when no
        endpoint survives, stranded tasks deliberately wait for one), but
        while the endpoint is down they are unreachable: multi-source
        selection, refetch-cost estimates, prefetching and the store's
        sole-replica eviction protection all stop counting them.  In-flight
        transfers toward the endpoint are left to land — the copy is on that
        disk and becomes useful again at rejoin — but quarantined like every
        other replica there.

        Queued demand jobs are only cancelled once no *authoritative* ticket
        waits on them (the failure coordinator re-places the stranded tasks,
        whose new tickets supersede the old ones); prefetch jobs are
        speculative and are dropped outright.  The published policy does
        none of this.
        """
        if self.published or self.store.is_offline(endpoint):
            return  # already quarantined: nothing left to cancel or re-route
        self.store.mark_offline(endpoint)
        for job in self.transfers.queued_jobs():
            if job.request.dst != endpoint:
                continue
            live = [t for t in job.tickets if self._authoritative(t)]
            if live:
                continue
            if self.transfers.cancel(job):
                self._detach_tickets(job)
        # Queued jobs that chose the crashed endpoint as their *source* are
        # re-issued from an online replica (same sweep eviction gets).  When
        # no online replica is left, demand keeps its last-resort source but
        # speculation is dropped — prefetch never copies from a corpse.  The
        # cancel check runs first: _pick_source's quarantined-set fallback
        # would otherwise "re-route" the prefetch to another crashed copy.
        for job in self.transfers.queued_jobs():
            if job.request.src != endpoint or job.request.dst == endpoint:
                continue
            if job.klass == PREFETCH and all(
                self.store.is_offline(s) for s in job.request.file.locations
            ):
                if self.transfers.cancel(job):
                    self._detach_tickets(job)
                continue
            self._reroute_job(job)

    def on_endpoint_rejoined(self, endpoint: str) -> None:
        """The endpoint came back: its surviving replicas are reachable again."""
        self.store.mark_online(endpoint)

    # -------------------------------------------------------------- internal
    def _on_replica_evicted(self, replica) -> None:
        """Re-source queued transfers that were going to copy from the victim.

        A source replica is never pinned (pins protect destinations), so a
        queued job's chosen source can vanish before dispatch.  The job is
        re-issued from the cheapest surviving replica; in-flight transfers
        are left alone (their copy was already under way).
        """
        for job in self.transfers.queued_jobs():
            if job.request.src != replica.endpoint:
                continue
            if job.request.file.file_id != replica.file.file_id:
                continue
            self._reroute_job(job)

    def _reroute_job(self, job: TransferJob) -> bool:
        """Cancel-and-resubmit a queued job from the cheapest current source.

        No-op (False) when the file has no replica left, the re-pick lands on
        the same source, or the job already started.
        """
        request = job.request
        if not request.file.locations:
            return False  # nothing left to copy from; the job keeps its fate
        new_src = self._pick_source(request.file, request.dst)
        if new_src == request.src:
            return False
        if not self.transfers.cancel(job):
            return False
        self.transfers.cancelled_count -= 1  # an internal re-route, not a cancel
        self.transfers.submit(
            TransferJob(
                request=self._moved_request(job, new_src),
                klass=job.klass,
                priority=job.priority,
                tickets=job.tickets,
                attempts=job.attempts,
                prefetch_origin=job.prefetch_origin,
                demand_joined=job.demand_joined,
                prefetch_priority=job.prefetch_priority,
            )
        )
        return True

    def _moved_request(self, job: TransferJob, src: str) -> TransferRequest:
        """``job``'s request copied from ``src``; its waiting tickets follow."""
        request = job.request
        fresh = TransferRequest(
            file=request.file, src=src, dst=request.dst, mechanism=self.mechanism
        )
        for ticket in job.tickets:
            ticket.pending_transfers.discard(request.transfer_id)
            ticket.pending_transfers.add(fresh.transfer_id)
        return fresh

    def _authoritative(self, ticket: StagingTicket) -> bool:
        return self._tickets_by_task.get(ticket.task_id) is ticket and not ticket.failed

    def _refetch_cost_s(self, file: RemoteFile, endpoint: str) -> float:
        """Cheapest predicted re-staging time from the *other* online replicas."""
        sources = [
            s
            for s in sorted(file.locations)
            if s != endpoint and not self.store.is_offline(s)
        ]
        if not sources:
            return float("inf")
        return min(
            self.backend.estimate_duration(src, endpoint, file.size_mb, mechanism=self.mechanism)
            for src in sources
        )

    def staging_sources(self, file: RemoteFile) -> List[str]:
        """The replicas a staging prediction prices ``file`` from.

        The published policy prices the primary replica (``[]`` when the
        file has none).  Otherwise these are the sorted replicas at online
        endpoints, or all of them when none is online: the candidates
        :meth:`_pick_source` chooses among, so a placement is never costed
        against a fast replica sitting on a crashed endpoint.
        """
        if self.published:
            primary = file.primary_location
            return [] if primary is None else [primary]
        sources = sorted(file.locations)
        if not sources:
            return sources
        online = [s for s in sources if not self.store.is_offline(s)]
        return online or sources

    def _pick_source(
        self, file: RemoteFile, destination: str, exclude: Tuple[str, ...] = ()
    ) -> str:
        """The replica to copy ``file`` from; it must have one.

        The published policy takes the cheapest estimated transfer among all
        replicas; ``exclude`` drops those that just failed to serve (its
        retry), falling back to the full set.  Otherwise the choice is the
        cheapest of :meth:`staging_sources` discounted by link pressure,
        with the plan root preferred within a bounded premium; when every
        replica sits on a crashed endpoint, demand deliberately falls back
        to a quarantined copy rather than failing the workflow, so the
        quarantine only shapes the choice while an online replica exists.
        """
        if self.published:
            sources = sorted(file.locations)
            if exclude:
                sources = [s for s in sources if s not in exclude] or sources
            return min(
                sources,
                key=lambda src: self.backend.estimate_duration(
                    src, destination, file.size_mb, mechanism=self.mechanism
                ),
            )
        sources = self.staging_sources(file)
        if len(sources) == 1:
            return sources[0]
        limit = self.transfers.max_concurrent_per_link

        def cost(src: str) -> float:
            base = self.backend.estimate_duration(
                src, destination, file.size_mb, mechanism=self.mechanism
            )
            pressure = self.transfers.link_pressure(src, destination)
            return base * (1.0 + pressure / limit)

        best = min(sources, key=cost)
        root = self._plan_root(file)
        if root is not None and root != best and root in sources:
            # Placement steering: serving repeat pulls from the plan root
            # keeps the root replica hot (eviction policies see the traffic)
            # and the other replicas expendable, at a bounded cost premium.
            if cost(root) <= _ROOT_PREFERENCE_FACTOR * cost(best):
                return root
        return best

    def _plan_root(self, file: RemoteFile) -> Optional[str]:
        provider = self._plan_provider
        plan = provider() if provider is not None else None
        if plan is None:
            return None
        return plan.root_for(file.file_id)

    def _join_or_enqueue(
        self, file: RemoteFile, destination: str, ticket: StagingTicket, priority: float
    ) -> None:
        if not file.locations:
            # No surviving replica anywhere (an expendable sole replica was
            # evicted before this — dynamic-DAG — consumer appeared, or the
            # file was never located).  Fail the ticket so the §IV-G ladder
            # fails the task cleanly instead of crashing the engine run.
            ticket.fail(NoReplicaError(file.file_id, destination))
            if ticket.completed_at is None:
                ticket.completed_at = self.clock.now
                self._open_ticket_count -= 1
            self._notify(ticket)
            return
        job = self.transfers.active_job(file.file_id, destination)
        if job is not None:
            ticket.pending_transfers.add(job.request.transfer_id)
            job.tickets.append(ticket)
            if job.prefetch_origin and not job.demand_joined:
                # Demand caught up with an in-queue/in-flight prefetch: the
                # speculation paid off (counted once per prefetched transfer).
                job.demand_joined = True
                self.prefetch_joined += 1
            self.transfers.reprioritize(job, klass=DEMAND, priority=priority)
            return
        src = self._pick_source(file, destination)
        request = TransferRequest(
            file=file, src=src, dst=destination, mechanism=self.mechanism
        )
        ticket.pending_transfers.add(request.transfer_id)
        job = TransferJob(request=request, klass=DEMAND, priority=priority, tickets=[ticket])
        self.transfers.submit(job)

    def _supersede(self, ticket: StagingTicket) -> None:
        """A newer placement replaced ``ticket``: release what only it needs.

        The published policy only marks the ticket: its transfers land
        (another ticket may wait on the same copy), and it is skipped when
        they complete or run out of retries.
        """
        self.superseded_tickets += 1
        ticket.superseded = True
        ticket.completed_at = self.clock.now
        self._open_ticket_count -= 1
        if self.published:
            return
        # Cancels and demotes are events: walk the ticket's jobs in the
        # order active_jobs() would.
        for job in self.transfers.jobs_for(ticket.pending_transfers):
            if ticket not in job.tickets:
                continue
            job.tickets.remove(ticket)
            ticket.pending_transfers.discard(job.request.transfer_id)
            if not job.tickets:
                if job.prefetch_origin:
                    # Back to speculation — at its original prefetch priority,
                    # not the departed demand ticket's: an upgraded prefetch
                    # whose demand left must not occupy a demand slot nor
                    # outrank genuinely hotter speculation.
                    self.transfers.demote(
                        job, klass=PREFETCH, priority=job.prefetch_priority
                    )
                else:
                    # Nobody else waits on it; a queued copy is cancelled
                    # outright (cancel() refuses in-flight jobs — those
                    # finish and their replica stays available for re-use).
                    self.transfers.cancel(job)
        ticket.pending_transfers.clear()

    def _detach_tickets(self, job: TransferJob) -> None:
        """Complete (superseded) tickets of a cancelled job."""
        now = self.clock.now
        for ticket in job.tickets:
            ticket.pending_transfers.discard(job.request.transfer_id)
            if ticket.done and ticket.completed_at is None:
                ticket.completed_at = now
                self._open_ticket_count -= 1
                self._notify(ticket)
        job.tickets.clear()

    def _on_job_done(self, job: TransferJob, result: TransferResult, concurrency: int) -> None:
        for callback in self._transfer_callbacks:
            callback(result, concurrency)
        self.transfer_count += 1

        if result.success:
            self.transfers.release(job)
            size = job.request.size_mb
            pair = (job.request.src, job.request.dst)
            self.total_transferred_mb += size
            self.volume_by_pair_mb[pair] += size
            self.store.admit(
                job.request.file, job.request.dst, prefetched=job.prefetch_origin
            )
            if job.tickets:
                # The arrival directly served demand: mark the replica used so
                # the prefetch-hit accounting cannot count it a second time.
                self.store.touch(job.request.file, job.request.dst)
            live = [t for t in job.tickets if not t.failed and not t.superseded]
            now = self.clock.now
            for ticket in live:
                # Volume attribution: live tickets only, exactly once per
                # successful transfer — retries never double-count.
                share = size / len(live)
                ticket.transferred_mb += share
                self.volume_by_namespace_mb[ticket.namespace] += share
                ticket.pending_transfers.discard(job.request.transfer_id)
                if ticket.done and ticket.completed_at is None:
                    ticket.completed_at = now
                    self._open_ticket_count -= 1
                    self._notify(ticket)
            return

        self.failed_transfer_count += 1
        if job.attempts <= self.max_retries:
            self.retry_count += 1
            if not self.published:
                self.transfers.requeue(job)
                return
            # §IV-E: under crash/brownout dynamics the failed replica's link
            # may be dead while another replica is reachable, so the retry
            # re-picks its source and goes to the tail of that link.
            request = job.request
            if len(request.file.locations) > 1:
                src = self._pick_source(request.file, request.dst, exclude=(request.src,))
                if src != request.src:
                    request = self._moved_request(job, src)
            self.transfers.requeue(job, request)
            return
        self.transfers.release(job)
        now = self.clock.now
        request = job.request
        for ticket in job.tickets:
            if ticket.failed or ticket.superseded:
                continue
            ticket.fail(
                TransferFailedError(
                    request.transfer_id, request.src, request.dst, job.attempts,
                    file_id=request.file.file_id,
                )
            )
            ticket.pending_transfers.discard(request.transfer_id)
            if ticket.completed_at is None:
                ticket.completed_at = now
                self._open_ticket_count -= 1
            self._notify(ticket)

    def _notify(self, ticket: StagingTicket) -> None:
        for callback in self._staged_callbacks.get(ticket.namespace, ()):
            callback(ticket)
