"""Exception hierarchy for the UniFaaS reproduction.

All library-raised exceptions derive from :class:`UniFaaSError` so that user
code can catch framework failures with a single ``except`` clause, mirroring
the fault-tolerance story in §IV-G of the paper (transfer retries and task
reassignment happen *inside* the framework; only exhausted retries surface).
"""

from __future__ import annotations

__all__ = [
    "UniFaaSError",
    "ConfigurationError",
    "SerializationLimitExceeded",
    "TaskFailedError",
    "StagingFailedError",
    "TransferFailedError",
    "NoReplicaError",
    "EndpointError",
    "SchedulingError",
    "WorkflowError",
]


class UniFaaSError(Exception):
    """Base class for all framework errors."""


class ConfigurationError(UniFaaSError):
    """Raised for invalid :class:`~repro.core.config.Config` contents."""


class SerializationLimitExceeded(UniFaaSError):
    """Raised when a task argument exceeds the 10 MB payload limit (§III-A).

    Arguments larger than the limit must be wrapped in a
    :class:`~repro.data.remote_file.RemoteFile` so the data manager can stage
    them out-of-band.
    """

    def __init__(self, size_bytes: int, limit_bytes: int, argument: str = "") -> None:
        self.size_bytes = size_bytes
        self.limit_bytes = limit_bytes
        self.argument = argument
        where = f" (argument {argument!r})" if argument else ""
        super().__init__(
            f"serialized payload of {size_bytes} bytes exceeds the "
            f"{limit_bytes} byte limit{where}; wrap large data in a RemoteFile"
        )


class TaskFailedError(UniFaaSError):
    """A task failed on every endpoint it was reassigned to (§IV-G)."""

    def __init__(self, task_id: str, message: str, attempts: int = 1) -> None:
        self.task_id = task_id
        self.attempts = attempts
        super().__init__(f"task {task_id} failed after {attempts} attempt(s): {message}")


class StagingFailedError(UniFaaSError):
    """A task input could not be staged onto its endpoint (§IV-G): the task
    fails terminally.  The subclass names the cause."""

    def __init__(self, message: str, file_id: str, dst: str) -> None:
        self.file_id = file_id
        self.dst = dst
        super().__init__(message)


class TransferFailedError(StagingFailedError):
    """A data transfer failed after exhausting its retries (§IV-G)."""

    def __init__(
        self, transfer_id: str, src: str, dst: str, attempts: int, file_id: str = ""
    ) -> None:
        self.transfer_id = transfer_id
        self.src = src
        self.attempts = attempts
        of_file = f" of {file_id}" if file_id else ""
        super().__init__(
            f"transfer {transfer_id}{of_file} ({src} -> {dst}) failed after "
            f"{attempts} attempt(s)",
            file_id,
            dst,
        )


class NoReplicaError(StagingFailedError):
    """A task input had no replica left to copy, so no transfer ran."""

    def __init__(self, file_id: str, dst: str) -> None:
        super().__init__(
            f"input {file_id} has no replica to stage to {dst} from", file_id, dst
        )


class EndpointError(UniFaaSError):
    """Raised for invalid endpoint operations (unknown endpoint, bad capacity...)."""


class SchedulingError(UniFaaSError):
    """Raised when the scheduler cannot produce a valid placement."""


class WorkflowError(UniFaaSError):
    """Raised for invalid workflow structures (e.g. dependency cycles)."""
