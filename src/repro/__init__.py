"""UniFaaS reproduction: federated function serving for federated CI.

Reproduction of *UniFaaS: Programming across Distributed Cyberinfrastructure
with Federated Function Serving* (IPDPS 2024).  The public API mirrors the
paper's programming model:

>>> from repro import Config, ExecutorSpec, UniFaaSClient, function
>>> from repro.faas import LocalEndpoint, LocalFabric
>>>
>>> @function
... def add(a, b):
...     return a + b
>>>
>>> config = Config(executors=[ExecutorSpec(label="local", endpoint="local")])
>>> client = UniFaaSClient(config, LocalFabric([LocalEndpoint("local")]))
>>> with client:
...     future = add(2, 3)
...     client.run()
...     future.result()
5

See ``README.md`` — "Architecture" for the system inventory, "Tests and
benchmarks" for the reproduction of the tables and figures of the paper's
evaluation.
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
from repro.data.remote_file import GlobusFile, RemoteDirectory, RemoteFile, RsyncFile

__version__ = "1.0.0"

__all__ = [
    "Config",
    "ConfigurationError",
    "EndpointError",
    "ExecutorSpec",
    "FederatedFunction",
    "GlobusFile",
    "NoReplicaError",
    "RemoteDirectory",
    "RemoteFile",
    "RsyncFile",
    "SchedulingError",
    "SerializationLimitExceeded",
    "SimProfile",
    "StagingFailedError",
    "Task",
    "TaskFailedError",
    "TaskGraph",
    "TaskState",
    "TransferFailedError",
    "UniFaaSClient",
    "UniFaaSError",
    "UniFuture",
    "WorkflowError",
    "function",
    "__version__",
]
