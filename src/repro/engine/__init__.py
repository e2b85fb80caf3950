"""The event-driven orchestration engine.

The engine package replaces the internals of the former monolithic
:class:`~repro.core.client.UniFaaSClient`: typed lifecycle events
(:mod:`repro.engine.events`) flow over a synchronous, deterministic
:class:`~repro.engine.bus.EventBus` between focused coordinators for
placement, staging, dispatch, failure handling and periodic duties, all
composed by :class:`~repro.engine.core.ExecutionEngine`.
"""

from repro.engine.bus import EventBus
from repro.engine.core import ENDPOINT_HINT_KWARG, ExecutionEngine
from repro.engine.dispatch import DispatchCoordinator
from repro.engine.events import (
    CapacityChanged,
    Event,
    StagingDone,
    TaskCompleted,
    TaskEvent,
    TaskFailed,
    TaskPlaced,
    TaskReady,
    TasksCompleted,
    TasksDispatched,
    TasksReady,
    expand_event,
)
from repro.engine.failure import FailureCoordinator
from repro.engine.periodic import PeriodicCoordinator
from repro.engine.placement import PlacementCoordinator
from repro.engine.staging import StagingCoordinator
from repro.engine.state import TaskIndex

__all__ = [
    "CapacityChanged",
    "DispatchCoordinator",
    "ENDPOINT_HINT_KWARG",
    "Event",
    "EventBus",
    "ExecutionEngine",
    "FailureCoordinator",
    "PeriodicCoordinator",
    "PlacementCoordinator",
    "StagingCoordinator",
    "StagingDone",
    "TaskCompleted",
    "TaskEvent",
    "TaskFailed",
    "TaskIndex",
    "TaskPlaced",
    "TaskReady",
    "TasksCompleted",
    "TasksDispatched",
    "TasksReady",
    "expand_event",
]
