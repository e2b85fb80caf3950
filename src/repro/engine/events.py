"""Typed task-lifecycle events exchanged on the engine's :class:`EventBus`.

Every state transition a task makes through the UniFaaS pipeline (Figs. 2–4)
is announced as one of these events:

========================  =================================================
:class:`TaskReady`        a task was runnable the moment it was submitted
:class:`TaskPlaced`       the scheduler (or a pin / retry) chose an endpoint
:class:`StagingDone`      the data manager finished staging the task's inputs
:class:`TasksDispatched`  a round's tasks were submitted to the fabric
:class:`TasksCompleted`   a round's execution records came back successful
:class:`TasksReady`       the successors those completions unlocked
:class:`TaskCompleted`    an attempt failed (it enters the §IV-G ladder)
:class:`TaskFailed`       the task is terminally failed (§IV-G exhausted)
:class:`CapacityChanged`  the endpoint monitor re-synchronised capacity
========================  =================================================

Endpoint *dynamics* — the real-world behaviours the paper's scheduler is
built to survive (endpoints crashing and rejoining, worker churn, cold
starts, degraded networks, stale status) — are announced as subclasses of
:class:`EndpointDynamicsEvent`.  The scenario subsystem's injector publishes
them when it perturbs the simulation substrate; the failure coordinator, the
elastic scaler and DHA's re-scheduling subscribe and react.

Events are small frozen dataclasses.  They carry the :class:`Task` object
for in-process consumers (``repr``-suppressed), plus the stable identifying
fields — function name, endpoint — that event logs and the cross-fabric
parity tests compare on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.dag import Task
from repro.faas.types import TaskExecutionRecord

__all__ = [
    "BatchEvent",
    "CapacityChanged",
    "ColdStartWindow",
    "EndpointCrashed",
    "EndpointDynamicsEvent",
    "EndpointRejoined",
    "Event",
    "NetworkDegraded",
    "NetworkRestored",
    "StagingDone",
    "StatusStalenessChanged",
    "TaskCompleted",
    "TaskEvent",
    "TaskFailed",
    "TaskPlaced",
    "TaskReady",
    "TasksCompleted",
    "TasksDispatched",
    "TasksReady",
    "WorkerChurn",
    "expand_event",
]


@dataclass(frozen=True)
class Event:
    """Base class of every engine event."""

    #: Clock reading when the event was published (simulated or wall time).
    time: float

    def describe(self) -> Tuple:
        """Stable identity tuple used by event logs and parity tests."""
        return (type(self).__name__,)


@dataclass(frozen=True)
class TaskEvent(Event):
    """An event about one task."""

    task: Task = field(repr=False, compare=False)
    task_id: str = ""
    #: Function name — stable across runs (task ids are process-global).
    name: str = ""

    @classmethod
    def for_task(cls, task: Task, time: float, **fields):
        return cls(time=time, task=task, task_id=task.task_id, name=task.name, **fields)

    def describe(self) -> Tuple:
        return (type(self).__name__, self.name)


@dataclass(frozen=True)
class TaskReady(TaskEvent):
    """The task had no unfinished dependency at submission.  (Successors a
    completion unlocks are announced together, as :class:`TasksReady`.)"""


@dataclass(frozen=True)
class TaskPlaced(TaskEvent):
    """An endpoint was selected: by the scheduler, a pin, or fault recovery."""

    endpoint: str = ""

    def describe(self) -> Tuple:
        return (type(self).__name__, self.name, self.endpoint)


@dataclass(frozen=True)
class StagingDone(TaskEvent):
    """The data manager finished (or abandoned) staging the task's inputs."""

    endpoint: str = ""
    failed: bool = False
    ticket_id: str = ""

    def describe(self) -> Tuple:
        return (type(self).__name__, self.name, self.endpoint, self.failed)


@dataclass(frozen=True)
class TaskCompleted(TaskEvent):
    """The fabric returned the execution record of a *failed* attempt.

    Published once per failed record, after the monitors, the metrics
    collector and the scheduler observed it; the failure coordinator's
    retry / reassign / fail ladder (§IV-G) is its one engine handler.
    Successful records travel as :class:`TasksCompleted`, whose log entries
    share this event's ``("TaskCompleted", name, endpoint, success)`` shape.
    """

    endpoint: str = ""
    record: Optional[TaskExecutionRecord] = field(default=None, repr=False, compare=False)

    @property
    def success(self) -> bool:
        return bool(self.record and self.record.success)

    def describe(self) -> Tuple:
        return (type(self).__name__, self.name, self.endpoint, self.success)


@dataclass(frozen=True)
class TaskFailed(TaskEvent):
    """The task failed terminally — every retry/reassignment was exhausted."""

    endpoint: Optional[str] = None
    error: str = ""
    attempts: int = 0

    def describe(self) -> Tuple:
        return (type(self).__name__, self.name)


@dataclass(frozen=True)
class BatchEvent(Event):
    """One event for a whole batch of same-class task transitions.

    The engine delivers one batch event per transition class per pump round
    instead of N per-task callbacks.  ``scalar_log`` carries the batch's
    event-log entries — one ``(round(time, 9), kind, name, ...)`` tuple per
    task transition, in the order the transitions happened — which is what
    the scenario determinism digests are computed over (see
    :func:`expand_event`).
    """

    count: int = 0
    scalar_log: Tuple[Tuple, ...] = field(default=(), repr=False, compare=False)

    def describe(self) -> Tuple:
        return (type(self).__name__, self.count)


@dataclass(frozen=True)
class TasksCompleted(BatchEvent):
    """A pump round's batch of successful completions.

    Its ``scalar_log`` also carries the ``TaskReady`` entries of the
    successors those completions unlocked, each right after the completion
    that unlocked it; the companion :class:`TasksReady` event therefore
    contributes no log entries of its own.
    """

    tasks: Tuple[Task, ...] = field(default=(), repr=False, compare=False)
    records: Tuple[TaskExecutionRecord, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class TasksReady(BatchEvent):
    """The successors a :class:`TasksCompleted` batch made ready."""

    tasks: Tuple[Task, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class TasksDispatched(BatchEvent):
    """A pump round's batch of fabric submissions (one ``TaskDispatched``
    log entry per task)."""

    tasks: Tuple[Task, ...] = field(default=(), repr=False, compare=False)


def expand_event(event: Event) -> Tuple[Tuple, ...]:
    """The event-log entries of ``event`` — the definition of the event log.

    A per-task event is its own single entry; a batch event expands to one
    entry per task transition it carries.  Event-log recorders (and the
    scenario digest) are defined over this expansion, so the log does not
    depend on how transitions happen to be batched into events.
    """
    if isinstance(event, BatchEvent):
        return event.scalar_log
    return ((round(event.time, 9),) + event.describe(),)


@dataclass(frozen=True)
class CapacityChanged(Event):
    """The endpoint monitor re-synchronised its mocks with the service."""


@dataclass(frozen=True)
class EndpointDynamicsEvent(Event):
    """Base class of events announcing a real-world endpoint perturbation.

    ``endpoint`` is empty for fabric-wide perturbations (network degradation,
    status staleness).  Subclasses carry the perturbation's parameters; their
    :meth:`describe` tuples feed the scenario determinism digest.
    """

    endpoint: str = ""

    def describe(self) -> Tuple:
        return (type(self).__name__, self.endpoint)


@dataclass(frozen=True)
class EndpointCrashed(EndpointDynamicsEvent):
    """An endpoint abruptly went offline, losing its queued and running tasks."""

    #: Tasks (queued + running) the crash failed on the endpoint.
    lost_tasks: int = 0

    def describe(self) -> Tuple:
        return (type(self).__name__, self.endpoint, self.lost_tasks)


@dataclass(frozen=True)
class EndpointRejoined(EndpointDynamicsEvent):
    """A previously crashed endpoint came back with a fresh worker pool."""

    workers: int = 0

    def describe(self) -> Tuple:
        return (type(self).__name__, self.endpoint, self.workers)


@dataclass(frozen=True)
class WorkerChurn(EndpointDynamicsEvent):
    """An endpoint gained or lost workers (another user's allocation)."""

    delta_workers: int = 0

    def describe(self) -> Tuple:
        return (type(self).__name__, self.endpoint, self.delta_workers)


@dataclass(frozen=True)
class ColdStartWindow(EndpointDynamicsEvent):
    """Tasks starting on the endpoint pay a cold-start penalty for a while."""

    penalty_s: float = 0.0
    duration_s: float = 0.0

    def describe(self) -> Tuple:
        return (type(self).__name__, self.endpoint, self.penalty_s, self.duration_s)


@dataclass(frozen=True)
class NetworkDegraded(EndpointDynamicsEvent):
    """Wide-area bandwidth dropped to ``factor`` of nominal for a window."""

    factor: float = 1.0
    duration_s: float = 0.0

    def describe(self) -> Tuple:
        return (type(self).__name__, self.factor, self.duration_s)


@dataclass(frozen=True)
class NetworkRestored(EndpointDynamicsEvent):
    """A network degradation window ended; bandwidth is nominal again."""

    def describe(self) -> Tuple:
        return (type(self).__name__,)


@dataclass(frozen=True)
class StatusStalenessChanged(EndpointDynamicsEvent):
    """The service's status cache refresh interval changed (staleness spike)."""

    interval_s: float = 0.0

    def describe(self) -> Tuple:
        return (type(self).__name__, self.interval_s)
