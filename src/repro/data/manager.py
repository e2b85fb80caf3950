"""Staging tickets: what the data layer hands back for a task's inputs (§IV-E).

For every task the scheduler places on an endpoint, the data layer
(:class:`~repro.dataplane.plane.DataPlane`) opens a :class:`StagingTicket`
that tracks the transfers the task waits on and reports when its staging is
complete (or failed) so the orchestration engine can dispatch it.
:func:`task_namespace` attributes a ticket's transfer volume to its tenant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.core.exceptions import StagingFailedError

__all__ = ["StagingTicket", "task_namespace"]

_ticket_counter = itertools.count()


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
    #: The owning workflow's namespace (:func:`task_namespace` of
    #: ``task_id``): the data layer notifies that tenant alone.
    namespace: str = ""
    ticket_id: str = field(
        init=False, default_factory=lambda: f"stage-{next(_ticket_counter):08d}"
    )
    pending_transfers: Set[str] = field(init=False, default_factory=set)
    failed: bool = False
    #: A newer placement of the same task replaced this ticket.  Superseded
    #: tickets never fire staged callbacks and accrue no transfer volume —
    #: the staging coordinator must not observe a "staged" event for a
    #: destination the task already left.
    superseded: bool = field(init=False, default=False)
    created_at: float = 0.0
    completed_at: Optional[float] = None
    #: Data volume this ticket moved across endpoints (MB).
    transferred_mb: float = field(init=False, default=0.0)
    #: Why a failed ticket failed, as the error the task's future raises: a
    #: :class:`~repro.core.exceptions.TransferFailedError` (the input, the
    #: transfer that ran out of retries, its source and attempt count) or a
    #: :class:`~repro.core.exceptions.NoReplicaError` (no transfer ran).
    error: Optional[StagingFailedError] = None

    def fail(self, error: StagingFailedError) -> None:
        """Mark the ticket failed for the cause ``error`` names."""
        self.failed = True
        self.error = error

    @property
    def done(self) -> bool:
        return not self.pending_transfers or self.failed
