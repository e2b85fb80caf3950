"""Core programming model of the UniFaaS reproduction.

This package contains the paper's primary contribution: the unified
programming interface (``@function``, futures, dynamic task graphs, the
``Config`` interface) and the orchestration engine that ties monitors,
profilers, the scheduler, the data manager and the task executor together.
"""

from repro.core.client import UniFaaSClient
from repro.core.config import Config, ExecutorSpec
from repro.core.dag import Task, TaskGraph, TaskState
from repro.core.exceptions import (
    ConfigurationError,
    EndpointError,
    NoReplicaError,
    SchedulingError,
    SerializationLimitExceeded,
    StagingFailedError,
    TaskFailedError,
    TransferFailedError,
    UniFaaSError,
    WorkflowError,
)
from repro.core.functions import FederatedFunction, SimProfile, function
from repro.core.futures import UniFuture

__all__ = [
    "UniFaaSClient",
    "Config",
    "ConfigurationError",
    "EndpointError",
    "ExecutorSpec",
    "FederatedFunction",
    "NoReplicaError",
    "SchedulingError",
    "SerializationLimitExceeded",
    "SimProfile",
    "StagingFailedError",
    "Task",
    "TaskFailedError",
    "TaskGraph",
    "TaskState",
    "TransferFailedError",
    "UniFaaSError",
    "UniFuture",
    "WorkflowError",
    "function",
]
