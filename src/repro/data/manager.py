"""The data manager: transparent wide-area staging (§IV-E).

For every task the scheduler places on an endpoint, the data manager works
out which input files are missing there, queues the necessary transfers (per
endpoint-pair, with a bounded number of concurrent transfers), monitors their
progress, retries failures (§IV-G) and notifies the orchestration engine when
the task's staging is complete so it can be dispatched.

It also maintains the replica catalog the Locality scheduler queries ("how
many bytes would I have to move to run this task on endpoint X?") and the
aggregate transfer-volume counters reported in Tables IV and V.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.data.remote_file import RemoteFile
from repro.data.transfer import TransferBackend, TransferRequest, TransferResult
from repro.sim.kernel import Clock

__all__ = ["DataManager", "StagingTicket", "task_namespace"]

_ticket_counter = itertools.count()

StagedCallback = Callable[["StagingTicket"], None]


def task_namespace(task_id: str) -> str:
    """The workflow namespace of a task id ("" on the single-workflow path).

    The multi-workflow serving layer prefixes every tenant's task ids with
    ``<workflow>/``; the data layer attributes per-ticket transfer volume to
    that namespace so tenants' bytes can be accounted separately.
    """
    head, sep, _ = task_id.partition("/")
    return head if sep else ""


@dataclass(eq=False)
class StagingTicket:
    """Tracks the staging of one task's inputs onto its target endpoint.

    Compared by identity: two tickets with equal fields are still two
    tickets (a re-placement opens a new one for the same task).
    """

    task_id: str
    destination: str
    ticket_id: str = field(default_factory=lambda: f"stage-{next(_ticket_counter):08d}")
    pending_transfers: Set[str] = field(default_factory=set)
    failed: bool = False
    #: A newer placement of the same task replaced this ticket.  Superseded
    #: tickets never fire staged callbacks and accrue no transfer volume —
    #: the staging coordinator must not observe a "staged" event for a
    #: destination the task already left.
    superseded: bool = False
    created_at: float = 0.0
    completed_at: Optional[float] = None
    #: Data volume this ticket moved across endpoints (MB).
    transferred_mb: float = 0.0

    @property
    def done(self) -> bool:
        return not self.pending_transfers or self.failed

    @property
    def staging_time_s(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at


@dataclass(eq=False)
class _QueuedTransfer:
    request: TransferRequest
    #: Every ticket waiting on this transfer; several tasks headed to the same
    #: endpoint may need the same file and must not trigger duplicate copies.
    tickets: List[StagingTicket] = field(default_factory=list)
    attempts: int = 0


class DataManager:
    """Schedules, monitors and retries the transfers behind task staging."""

    def __init__(
        self,
        backend: TransferBackend,
        clock: Clock,
        *,
        mechanism: str = "globus",
        max_concurrent_transfers: int = 4,
        max_retries: int = 3,
    ) -> None:
        if max_concurrent_transfers <= 0:
            raise ValueError("max_concurrent_transfers must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.backend = backend
        self.clock = clock
        self.mechanism = mechanism
        self.max_concurrent_transfers = max_concurrent_transfers
        self.max_retries = max_retries

        self._queues: Dict[Tuple[str, str], Deque[_QueuedTransfer]] = defaultdict(deque)
        self._in_flight: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Outstanding transfer per (file_id, destination): staging requests
        #: for a file that is already on its way simply join the wait list.
        self._active_file_transfers: Dict[Tuple[str, str], _QueuedTransfer] = {}
        self._tickets: Dict[str, StagingTicket] = {}
        self._tickets_by_task: Dict[str, StagingTicket] = {}
        #: Tickets grouped by workflow namespace, maintained incrementally so
        #: :meth:`release_namespace` (streaming-tenant retirement) never scans
        #: every ticket ever issued.
        self._tickets_by_namespace: Dict[str, List[StagingTicket]] = defaultdict(list)
        #: Tickets created but not yet done — kept as a counter so the
        #: metrics sampler's :meth:`active_staging_tasks` is O(1) instead of
        #: re-scanning every ticket ever issued.
        self._open_ticket_count = 0
        self._staged_callbacks: List[StagedCallback] = []
        self._transfer_callbacks: List[Callable[[TransferResult, int], None]] = []

        # Aggregate statistics (Tables IV/V and Fig. 10).
        self.total_transferred_mb = 0.0
        self.transfer_count = 0
        self.failed_transfer_count = 0
        self.retry_count = 0
        self.volume_by_pair_mb: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Transfer volume attributed per workflow namespace (multi-tenant
        #: serving; the single-workflow path accumulates under "").
        self.volume_by_namespace_mb: Dict[str, float] = defaultdict(float)

    # -------------------------------------------------------------- callbacks
    def add_staged_callback(self, callback: StagedCallback) -> None:
        """Register a callback invoked when a ticket finishes (or fails)."""
        self._staged_callbacks.append(callback)

    def remove_staged_callback(self, callback: StagedCallback) -> None:
        """Unregister a staged callback (a retired tenant's staging coordinator).

        Without this, a long streaming run accumulates one dead callback per
        all-time tenant on the shared manager and every ticket notification
        fans out to all of them.
        """
        try:
            self._staged_callbacks.remove(callback)
        except ValueError:
            pass

    def add_transfer_callback(self, callback: Callable[[TransferResult, int], None]) -> None:
        """Register a callback invoked per transfer attempt result.

        The callback receives ``(result, concurrency)`` where concurrency is
        the number of transfers that were in flight on the same endpoint pair
        — the feature the transfer profiler trains on.
        """
        self._transfer_callbacks.append(callback)

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

    # --------------------------------------------------------------- staging
    def stage(
        self,
        task_id: str,
        files: Iterable[RemoteFile],
        destination: str,
        priority: float = 0.0,
    ) -> StagingTicket:
        """Ensure ``files`` are present on ``destination`` for ``task_id``.

        Returns a ticket that is already ``done`` when nothing needs to move.
        ``priority`` is accepted for interface parity with the data plane
        (:class:`~repro.dataplane.plane.DataPlane`); the FIFO path ignores it.
        """
        previous = self._tickets_by_task.get(task_id)
        if previous is not None and not previous.done:
            # The task was re-placed while its old ticket was still staging.
            # Mark the old ticket superseded so its in-flight transfers can
            # neither fire a stale "staged" callback for the abandoned
            # destination nor accrue volume (parity with the data plane's
            # supersede-and-cancel path; FIFO transfers are left to land —
            # another ticket may be waiting on the same copy).
            previous.superseded = True
            previous.completed_at = self.clock.now()
            self._open_ticket_count -= 1
        ticket = StagingTicket(
            task_id=task_id, destination=destination, created_at=self.clock.now()
        )
        self._tickets[ticket.ticket_id] = ticket
        self._tickets_by_task[task_id] = ticket
        self._tickets_by_namespace[task_namespace(task_id)].append(ticket)

        missing = self.missing_files(files, destination)
        if not missing:
            ticket.completed_at = self.clock.now()
            self._notify(ticket)
            return ticket

        self._open_ticket_count += 1
        for file in missing:
            dedup_key = (file.file_id, destination)
            existing = self._active_file_transfers.get(dedup_key)
            if existing is not None:
                # The file is already on its way to this endpoint for another
                # task; wait for that copy instead of transferring it again.
                ticket.pending_transfers.add(existing.request.transfer_id)
                existing.tickets.append(ticket)
                continue
            src = self._pick_source(file, destination)
            request = TransferRequest(
                file=file, src=src, dst=destination, mechanism=self.mechanism
            )
            ticket.pending_transfers.add(request.transfer_id)
            queued = _QueuedTransfer(request=request, tickets=[ticket])
            self._active_file_transfers[dedup_key] = queued
            pair = (src, destination)
            self._queues[pair].append(queued)
            self._pump_pair(pair)
        return ticket

    def register_output(self, file: RemoteFile, endpoint: str) -> None:
        """Record that ``file`` was produced on ``endpoint``."""
        file.add_location(endpoint)

    # ------------------------------------------------------------- retirement
    def release_namespace(self, namespace: str) -> int:
        """Drop a retired workflow's staging records; returns tickets released.

        Called by the serving layer when a streaming tenant retires: every
        ticket it ever opened (all terminal by then), its per-task indices and
        its attributed-volume entry are released so live memory stays
        O(active tenants), not O(all-time tasks).  The aggregate Table IV/V
        counters are untouched.
        """
        tickets = self._tickets_by_namespace.pop(namespace, [])
        for ticket in tickets:
            self._tickets.pop(ticket.ticket_id, None)
            if self._tickets_by_task.get(ticket.task_id) is ticket:
                del self._tickets_by_task[ticket.task_id]
            self._release_task_state(ticket.task_id)
        self.volume_by_namespace_mb.pop(namespace, None)
        return len(tickets)

    def _release_task_state(self, task_id: str) -> None:
        """Subclass hook: drop per-task state beyond the ticket indices."""

    # -------------------------------------------------------------- internal
    def _pick_source(
        self, file: RemoteFile, destination: str, exclude: Iterable[str] = ()
    ) -> str:
        """Choose the replica to copy from (cheapest estimated transfer).

        ``exclude`` drops replicas that just failed to serve (retry path);
        when every replica is excluded the full set is used as a last resort.
        """
        sources = sorted(file.locations)
        if not sources:
            raise ValueError(
                f"file {file.name!r} has no replica to stage to {destination!r} from"
            )
        excluded = set(exclude)
        if excluded:
            remaining = [s for s in sources if s not in excluded]
            sources = remaining or sources
        if len(sources) == 1:
            return sources[0]
        return min(
            sources,
            key=lambda src: self.backend.estimate_duration(
                src, destination, file.size_mb, mechanism=self.mechanism
            ),
        )

    def _pump_pair(self, pair: Tuple[str, str]) -> None:
        queue = self._queues[pair]
        while queue and self._in_flight[pair] < self.max_concurrent_transfers:
            queued = queue.popleft()
            self._in_flight[pair] += 1
            queued.attempts += 1
            self.transfer_count += 1
            self.backend.start(
                queued.request, lambda result, q=queued: self._on_transfer_done(q, result)
            )

    def _on_transfer_done(self, queued: _QueuedTransfer, result: TransferResult) -> None:
        pair = (queued.request.src, queued.request.dst)
        concurrency = max(1, self._in_flight[pair])
        self._in_flight[pair] -= 1
        dedup_key = (queued.request.file.file_id, queued.request.dst)
        for callback in self._transfer_callbacks:
            callback(result, concurrency)

        if result.success:
            self._active_file_transfers.pop(dedup_key, None)
            size = queued.request.size_mb
            self.total_transferred_mb += size
            self.volume_by_pair_mb[pair] += size
            # Attribute the moved volume to *live* tickets only: a ticket that
            # already failed terminally (a sibling transfer exhausted its
            # retries) or was superseded by a re-placement must not keep
            # accumulating volume, or per-ticket sums double-count against
            # the Table IV/V aggregates.
            live = [t for t in queued.tickets if not t.failed and not t.superseded]
            for ticket in live:
                share = size / len(live)
                ticket.transferred_mb += share
                self.volume_by_namespace_mb[task_namespace(ticket.task_id)] += share
            for ticket in queued.tickets:
                ticket.pending_transfers.discard(queued.request.transfer_id)
                if ticket.superseded:
                    continue  # a newer ticket owns this task's staging
                if ticket.done and ticket.completed_at is None:
                    ticket.completed_at = self.clock.now()
                    self._open_ticket_count -= 1
                    self._notify(ticket)
        else:
            self.failed_transfer_count += 1
            if queued.attempts <= self.max_retries:
                self.retry_count += 1
                # Re-pick the source before re-queueing (parity with the data
                # plane's ``_reroute_job``): under crash/brownout dynamics the
                # chosen replica's link may be dead while another replica is
                # perfectly reachable — retrying into the same dead (src, dst)
                # queue would burn every retry for nothing.
                retry_pair = self._requeue_for_retry(queued)
                if retry_pair != pair:
                    self._pump_pair(retry_pair)
            else:
                self._active_file_transfers.pop(dedup_key, None)
                for ticket in queued.tickets:
                    if ticket.failed or ticket.superseded:
                        continue
                    ticket.failed = True
                    ticket.pending_transfers.discard(queued.request.transfer_id)
                    ticket.completed_at = self.clock.now()
                    self._open_ticket_count -= 1
                    self._notify(ticket)

        self._pump_pair(pair)

    def _requeue_for_retry(self, queued: _QueuedTransfer) -> Tuple[str, str]:
        """Queue a failed transfer for another attempt, re-picking its source.

        Prefers a replica other than the one that just failed; waiting
        tickets' pending-transfer ids follow the rebuilt request.  Returns
        the (src, dst) pair the retry was queued on.
        """
        request = queued.request
        file = request.file
        if len(file.locations) > 1:
            new_src = self._pick_source(file, request.dst, exclude=(request.src,))
            if new_src != request.src:
                fresh = TransferRequest(
                    file=file, src=new_src, dst=request.dst, mechanism=self.mechanism
                )
                for ticket in queued.tickets:
                    ticket.pending_transfers.discard(request.transfer_id)
                    ticket.pending_transfers.add(fresh.transfer_id)
                queued.request = fresh
        retry_pair = (queued.request.src, queued.request.dst)
        self._queues[retry_pair].append(queued)
        return retry_pair

    def _notify(self, ticket: StagingTicket) -> None:
        for callback in self._staged_callbacks:
            callback(ticket)
