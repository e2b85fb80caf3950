"""The data plane — capacity-bounded, priority-scheduled staging (§IV-E++).

:class:`DataPlane` is a drop-in replacement for
:class:`~repro.data.manager.DataManager` (same staging interface, same
aggregate counters) that routes every file movement through the subsystem's
three components:

* a :class:`~repro.dataplane.replica_store.ReplicaStore` giving each endpoint
  a storage budget with pinning and pluggable eviction;
* a :class:`~repro.dataplane.transfer_scheduler.TransferScheduler` replacing
  the per-link FIFO with priority queues, multi-source selection and
  class-aware concurrency shaping;
* a :class:`~repro.dataplane.prefetch.Prefetcher` (wired by the engine) that
  pipelines ready-soon tasks' inputs behind their predecessors' execution.

Beyond the legacy manager it also:

* picks transfer sources *bandwidth-aware*: the replica whose link promises
  the cheapest arrival, discounted by the pressure already queued on it;
* coalesces duplicate ``(file, destination)`` requests across tickets and
  upgrades in-queue prefetches that a demand request catches up with;
* supersedes a task's previous ticket when the task is re-placed, cancelling
  queued transfers nobody else is waiting on;
* cancels queued transfers toward crashed endpoints instead of letting them
  waste link capacity;
* attributes per-ticket transfer volume to *live* tickets only, so the Table
  IV/V aggregates cannot double-count a failed-then-retried transfer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.data.manager import DataManager, StagingTicket, task_namespace
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


class DataPlane(DataManager):
    """Replica store + transfer scheduler behind the DataManager interface."""

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
    ) -> None:
        super().__init__(
            backend,
            clock,
            mechanism=mechanism,
            max_concurrent_transfers=max_concurrent_transfers,
            max_retries=max_retries,
        )
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

        #: Zero-arg callable returning the current placement plan (or None);
        #: multi-source selection prefers a file's plan replica root while
        #: its cost stays within a small factor of the true cheapest source.
        self._plan_provider = None

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

    def set_plan_provider(self, provider) -> None:
        """Wire the placement service's plan into multi-source selection."""
        self._plan_provider = provider

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
        """Snapshot of the data-plane counters (metrics collector payload)."""
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

        ``priority`` (the task's DHA upward rank) orders the resulting
        transfers within the demand class.
        """
        previous = self._tickets_by_task.get(task_id)
        if previous is not None and previous.completed_at is None:
            self._supersede(previous)
        self.store.release_task(task_id)

        ticket = StagingTicket(
            task_id=task_id, destination=destination, created_at=self.clock.now()
        )
        self._tickets[ticket.ticket_id] = ticket
        self._tickets_by_task[task_id] = ticket
        self._tickets_by_namespace[task_namespace(task_id)].append(ticket)

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
            ticket.completed_at = self.clock.now()
            self._notify(ticket)
            return ticket

        self._open_ticket_count += 1
        for file in missing:
            if ticket.failed:
                break  # an earlier input had no surviving replica
            self._join_or_enqueue(file, destination, ticket, priority)
        return ticket

    def prefetch(self, file: RemoteFile, destination: str, priority: float = 0.0) -> bool:
        """Speculatively move ``file`` toward ``destination``; True if issued."""
        if file.size_mb <= 0 or file.available_at(destination) or not file.locations:
            return False
        if self.store.is_offline(destination):
            return False  # never speculate toward a crashed endpoint
        if all(self.store.is_offline(s) for s in file.locations):
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
        super().register_output(file, endpoint)
        self.store.admit(file, endpoint)

    def release_task(self, task_id: str) -> None:
        """The task reached a terminal state: its input pins are released."""
        self.store.release_task(task_id)

    def _release_task_state(self, task_id: str) -> None:
        """Tenant retirement: make sure no pin of the retired task survives."""
        self.store.release_task(task_id)

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
        speculative and are dropped outright.
        """
        if self.store.is_offline(endpoint):
            return  # every tenant's bus forwards the same crash; the first one acted
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
        fresh = TransferRequest(
            file=request.file, src=new_src, dst=request.dst, mechanism=self.mechanism
        )
        for ticket in job.tickets:
            ticket.pending_transfers.discard(request.transfer_id)
            ticket.pending_transfers.add(fresh.transfer_id)
        self.transfers.submit(
            TransferJob(
                request=fresh,
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

    def _pick_source(
        self, file: RemoteFile, destination: str, exclude: Iterable[str] = ()
    ) -> str:
        """Cheapest *online* replica over the network, discounted by link
        pressure.  When every replica sits on a crashed endpoint, demand
        deliberately falls back to a quarantined copy — degrading to the
        legacy permissive behavior rather than failing the workflow — so the
        quarantine only shapes the choice while an online replica exists.
        ``exclude`` (interface parity with the legacy manager's retry path)
        drops just-failed replicas, falling back to the full set."""
        sources = sorted(file.locations)
        if not sources:
            raise ValueError(
                f"file {file.name!r} has no replica to stage to {destination!r} from"
            )
        excluded = set(exclude)
        if excluded:
            remaining = [s for s in sources if s not in excluded]
            sources = remaining or sources
        online = [s for s in sources if not self.store.is_offline(s)]
        sources = online or sources
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
            ticket.failed = True
            if ticket.completed_at is None:
                ticket.completed_at = self.clock.now()
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
        """A newer placement replaced ``ticket``: release what only it needs."""
        self.superseded_tickets += 1
        ticket.superseded = True
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
        if ticket.completed_at is None:
            ticket.completed_at = self.clock.now()
            self._open_ticket_count -= 1

    def _detach_tickets(self, job: TransferJob) -> None:
        """Complete (superseded) tickets of a cancelled job."""
        now = self.clock.now()
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
        self.transfer_count += 1  # attempts, like the legacy manager

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
            now = self.clock.now()
            for ticket in live:
                # Volume attribution: live tickets only, exactly once per
                # successful transfer — retries never double-count.
                share = size / len(live)
                ticket.transferred_mb += share
                self.volume_by_namespace_mb[task_namespace(ticket.task_id)] += share
                ticket.pending_transfers.discard(job.request.transfer_id)
                if ticket.done and ticket.completed_at is None:
                    ticket.completed_at = now
                    self._open_ticket_count -= 1
                    self._notify(ticket)
            return

        self.failed_transfer_count += 1
        if job.attempts <= self.max_retries:
            self.retry_count += 1
            self.transfers.requeue(job)
            return
        self.transfers.release(job)
        now = self.clock.now()
        for ticket in job.tickets:
            if ticket.failed:
                continue
            ticket.failed = True
            ticket.pending_transfers.discard(job.request.transfer_id)
            if ticket.completed_at is None:
                ticket.completed_at = now
                self._open_ticket_count -= 1
            self._notify(ticket)
