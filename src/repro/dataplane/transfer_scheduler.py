"""Priority- and bandwidth-aware transfer scheduling — the data plane's queue.

Per-link queues of :class:`TransferJob` with bounded concurrency per link:

* **priority order** — demand transfers are ordered by the priority of the
  downstream task waiting on them (DHA's upward rank), so critical-path
  staging jumps the queue; with every priority equal (the published §IV-E
  policy) a link's queue is FIFO;
* **two service classes** — prefetch transfers ride a strictly lower class
  than demand transfers and are capped to a fraction of each link's
  concurrency slots, so speculation can never delay a task that is actually
  waiting;
* **cross-ticket coalescing** — one in-flight/queued transfer per
  ``(file, destination)`` pair fabric-wide; later requests (from any ticket,
  demand or prefetch) join the existing job instead of duplicating the copy,
  and a demand arrival *upgrades* a queued prefetch to demand class;
* **cancellation** — queued jobs can be cancelled (endpoint crashed, task
  re-placed elsewhere) before they ever occupy a link.

The scheduler owns queueing and in-flight accounting only; replica/ticket
semantics live in :class:`~repro.dataplane.plane.DataPlane`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.data.manager import StagingTicket
from repro.data.transfer import TransferBackend, TransferRequest, TransferResult

__all__ = ["TransferJob", "TransferScheduler", "DEMAND", "PREFETCH"]

#: Service classes: lower value = served first.
DEMAND = 0
PREFETCH = 1

Link = Tuple[str, str]


@dataclass(eq=False)
class TransferJob:
    """One scheduled file movement, possibly shared by many tickets.

    Compared by identity: a job is a live queue entry, not a value.
    """

    request: TransferRequest
    #: Service class (``DEMAND`` or ``PREFETCH``).
    klass: int = DEMAND
    #: Downstream-task priority (higher = sooner within the class).
    priority: float = 0.0
    seq: int = field(init=False, default=0)
    tickets: List[StagingTicket] = field(default_factory=list)
    attempts: int = 0
    cancelled: bool = False
    started: bool = False
    #: True when the job entered the queue through the prefetch pipeline
    #: (kept even after a demand upgrade, for usefulness accounting).
    prefetch_origin: bool = False
    #: True once a demand ticket joined a prefetch-origin job (counted once).
    demand_joined: bool = False
    #: The priority the prefetch pipeline issued the job with — restored when
    #: a demand upgrade is superseded and the job falls back to speculation.
    prefetch_priority: float = 0.0
    #: Token of the job's single *live* heap entry.  Every (re-)push mints a
    #: new token, so stale lazy-deletion entries are recognised exactly even
    #: when a demote restores a key identical to an earlier entry's — and the
    #: token doubles as a unique heap tiebreaker, so heapq never has to
    #: compare two TransferJob payloads.
    queue_token: int = field(init=False, default=-1)

    @property
    def link(self) -> Link:
        return (self.request.src, self.request.dst)

    def sort_key(self) -> Tuple:
        return (self.klass, -self.priority, self.seq)


class TransferScheduler:
    """Per-link priority queues with class-aware concurrency shaping."""

    def __init__(
        self,
        backend: TransferBackend,
        *,
        max_concurrent_per_link: int = 4,
        on_done: Optional[Callable[[TransferJob, TransferResult, int], None]] = None,
    ) -> None:
        if max_concurrent_per_link <= 0:
            raise ValueError("max_concurrent_per_link must be positive")
        self.backend = backend
        self.max_concurrent_per_link = max_concurrent_per_link
        #: Slots a prefetch-class job may occupy on a link: always leaves at
        #: least one slot free for demand work on multi-slot links.
        self.prefetch_slots_per_link = max(1, max_concurrent_per_link - 1)
        self._on_done = on_done
        self._seq = itertools.count()
        self._push_seq = itertools.count()
        self._queues: Dict[Link, List[Tuple[Tuple, int, TransferJob]]] = {}
        self._in_flight: Dict[Link, int] = {}
        self._in_flight_prefetch: Dict[Link, int] = {}
        #: Live queued (not started, not cancelled) jobs per link — kept as a
        #: counter because the heaps hold stale lazy-deletion entries.
        self._queued_count: Dict[Link, int] = {}
        #: The single live job per (file_id, destination) — the coalescing map.
        self._active: Dict[Tuple[str, str], TransferJob] = {}
        #: The same live jobs by the transfer id waiting tickets hold.
        self._by_transfer_id: Dict[str, TransferJob] = {}
        self.cancelled_count = 0

    # ----------------------------------------------------------------- lookup
    def active_job(self, file_id: str, destination: str) -> Optional[TransferJob]:
        job = self._active.get((file_id, destination))
        if job is not None and job.cancelled:
            return None
        return job

    def jobs_for(self, transfer_ids: Iterable[str]) -> List[TransferJob]:
        """The live jobs among ``transfer_ids``, in :meth:`active_jobs` order."""
        jobs = [
            job
            for transfer_id in transfer_ids
            if (job := self._by_transfer_id.get(transfer_id)) is not None
        ]
        jobs.sort(key=lambda job: (job.request.file.file_id, job.request.dst))
        return jobs

    def in_flight(self, src: str, dst: str) -> int:
        return self._in_flight.get((src, dst), 0)

    def queued(self, src: str, dst: str) -> int:
        return self._queued_count.get((src, dst), 0)

    def link_pressure(self, src: str, dst: str) -> int:
        """Transfers already claiming the link (in flight + queued)."""
        return self.in_flight(src, dst) + self.queued(src, dst)

    def queued_jobs(self) -> List[TransferJob]:
        """Every queued (not yet started) live job, in deterministic order."""
        return [job for job in self.active_jobs() if not job.started]

    def active_jobs(self) -> List[TransferJob]:
        """Every live (queued or in-flight) job, in deterministic order."""
        return [
            job
            for key in sorted(self._active)
            if not (job := self._active[key]).cancelled
        ]

    # ----------------------------------------------------------------- submit
    def submit(self, job: TransferJob) -> None:
        """Queue ``job`` and pump its link."""
        job.seq = next(self._seq)
        key = (job.request.file.file_id, job.request.dst)
        self._active[key] = job
        self._by_transfer_id[job.request.transfer_id] = job
        self._queued_count[job.link] = self._queued_count.get(job.link, 0) + 1
        self._push(job)
        self.pump(job.link)

    def reprioritize(self, job: TransferJob, *, klass: int, priority: float) -> None:
        """Raise a queued job's service class / priority (no-op if started)."""
        if job.started or job.cancelled:
            return
        if (klass, -priority) >= (job.klass, -job.priority):
            return
        job.klass = klass
        job.priority = priority
        # Lazy-deletion re-push: the stale heap entry is skipped because its
        # token no longer matches the job's current queue_token.
        self._push(job)
        self.pump(job.link)

    def demote(self, job: TransferJob, *, klass: int, priority: float = 0.0) -> None:
        """Push a queued job back down (its demand tickets all departed)."""
        if job.started or job.cancelled:
            return
        job.klass = klass
        job.priority = priority
        self._push(job)
        self.pump(job.link)

    def cancel(self, job: TransferJob) -> bool:
        """Cancel a queued job (False when it already started)."""
        if job.started or job.cancelled:
            return False
        job.cancelled = True
        self._forget(job)
        self._queued_count[job.link] = max(0, self._queued_count.get(job.link, 0) - 1)
        self.cancelled_count += 1
        return True

    def requeue(self, job: TransferJob, request: Optional[TransferRequest] = None) -> None:
        """Put a failed job back in a queue for another attempt.

        Without ``request`` the job keeps its place in its link's queue.
        Given one (the published policy's retry, possibly from another
        replica), the job takes that request's link and the tail of its queue.
        """
        if request is not None:
            del self._by_transfer_id[job.request.transfer_id]
            job.request = request
            self._by_transfer_id[request.transfer_id] = job
            job.seq = next(self._seq)
        job.started = False
        self._queued_count[job.link] = self._queued_count.get(job.link, 0) + 1
        self._push(job)
        self.pump(job.link)

    def release(self, job: TransferJob) -> None:
        """Drop a finished job from the coalescing map."""
        self._forget(job)

    def _forget(self, job: TransferJob) -> None:
        key = (job.request.file.file_id, job.request.dst)
        if self._active.get(key) is job:
            del self._active[key]
        self._by_transfer_id.pop(job.request.transfer_id, None)

    # ------------------------------------------------------------------- pump
    def pump(self, link: Link) -> None:
        queue = self._queues.get(link)
        if not queue:
            return
        while queue and self._in_flight.get(link, 0) < self.max_concurrent_per_link:
            _key, token, job = queue[0]
            if job.cancelled or job.started or token != job.queue_token:
                heapq.heappop(queue)  # stale or lazy-deleted entry
                continue
            if (
                job.klass == PREFETCH
                and self._in_flight_prefetch.get(link, 0) >= self.prefetch_slots_per_link
            ):
                break  # leave headroom for demand transfers on this link
            heapq.heappop(queue)
            self._dispatch(job)
        if not queue:
            self._queues.pop(link, None)

    def _push(self, job: TransferJob) -> None:
        job.queue_token = next(self._push_seq)
        heapq.heappush(
            self._queues.setdefault(job.link, []),
            (job.sort_key(), job.queue_token, job),
        )

    def _dispatch(self, job: TransferJob) -> None:
        link = job.link
        job.started = True
        job.attempts += 1
        self._queued_count[link] = max(0, self._queued_count.get(link, 0) - 1)
        self._in_flight[link] = self._in_flight.get(link, 0) + 1
        if job.klass == PREFETCH:
            self._in_flight_prefetch[link] = self._in_flight_prefetch.get(link, 0) + 1
        self.backend.start(job.request, lambda result, j=job: self._finish(j, result))

    def _finish(self, job: TransferJob, result: TransferResult) -> None:
        link = job.link
        concurrency = max(1, self._in_flight.get(link, 0))
        self._in_flight[link] = max(0, self._in_flight.get(link, 0) - 1)
        if job.klass == PREFETCH:
            self._in_flight_prefetch[link] = max(0, self._in_flight_prefetch.get(link, 0) - 1)
        if self._on_done is not None:
            self._on_done(job, result, concurrency)
        self.pump(link)
