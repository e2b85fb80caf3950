"""Shared datatypes of the FaaS fabric layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

__all__ = [
    "EndpointStatus",
    "ServiceLatencyModel",
    "TaskExecutionRecord",
    "TaskExecutionRequest",
]


@dataclass(frozen=True)
class EndpointStatus:
    """Point-in-time status snapshot of an endpoint.

    The web service serves these snapshots to clients; crucially it only
    refreshes them every ``status_refresh_interval_s`` (§IV-B), which is why
    the endpoint monitor keeps its own mock endpoints.
    """

    endpoint: str
    online: bool
    active_workers: int
    busy_workers: int
    idle_workers: int
    pending_tasks: int
    max_workers: int
    cores_per_node: int
    cpu_freq_ghz: float
    ram_gb: float
    #: Simulation time at which this snapshot was taken.
    as_of: float = 0.0

    @property
    def free_capacity(self) -> int:
        """Workers that could accept a task right now."""
        return max(0, self.idle_workers - self.pending_tasks)

    def hardware_features(self) -> tuple[float, float, float]:
        return (float(self.cores_per_node), self.cpu_freq_ghz, self.ram_gb)


@dataclass(frozen=True)
class ServiceLatencyModel:
    """Latencies of the cloud service path, used for the Fig. 5 breakdown.

    Values default to the measurements reported in the paper: task dispatch to
    the remote endpoint is dominated by the WAN round-trip (~174 ms), result
    polling adds ~117 ms, the endpoint adds a small execution overhead
    (~62 ms) and the submission call itself costs a few milliseconds.
    """

    submit_latency_s: float = 0.004
    dispatch_latency_s: float = 0.174
    result_poll_latency_s: float = 0.117
    endpoint_overhead_s: float = 0.062
    status_refresh_interval_s: float = 60.0

    def __post_init__(self) -> None:
        for name in (
            "submit_latency_s",
            "dispatch_latency_s",
            "result_poll_latency_s",
            "endpoint_overhead_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.status_refresh_interval_s <= 0:
            raise ValueError("status_refresh_interval_s must be positive")


@dataclass
class TaskExecutionRequest:
    """Everything an endpoint needs to run one task.

    In simulation mode the endpoint uses ``sim_duration_s`` /
    ``sim_output_mb`` (pre-sampled by the fabric from the function's
    :class:`~repro.core.functions.SimProfile`); in local mode it calls
    ``callable_`` with the resolved arguments.
    """

    task_id: str
    function_name: str
    #: Number of workers the task occupies (1 for ordinary functions).
    cores: int = 1
    #: Total input data size in MB (feature for the profilers).
    input_mb: float = 0.0
    #: Simulated execution duration on a reference-speed worker; the endpoint
    #: divides by its hardware speed factor.  ``None`` in local mode.
    sim_duration_s: Optional[float] = None
    #: Simulated output data volume in MB.
    sim_output_mb: float = 0.0
    #: Per-attempt failure probability carried from the function's
    #: :class:`~repro.core.functions.SimProfile`; combined with the
    #: endpoint-level injection rate at completion time.
    sim_failure_rate: float = 0.0
    #: Real callable and arguments (local mode only).
    callable_: Optional[Callable[..., Any]] = None
    args: tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.input_mb < 0 or self.sim_output_mb < 0:
            raise ValueError("data sizes must be non-negative")
        if self.sim_duration_s is not None and self.sim_duration_s < 0:
            raise ValueError("sim_duration_s must be non-negative")
        if not 0.0 <= self.sim_failure_rate <= 1.0:
            raise ValueError("sim_failure_rate must be within [0, 1]")


@dataclass
class TaskExecutionRecord:
    """Outcome of one execution attempt, streamed to the task monitor."""

    task_id: str
    endpoint: str
    function_name: str
    success: bool
    submitted_at: float
    started_at: float
    completed_at: float
    input_mb: float = 0.0
    output_mb: float = 0.0
    result: Any = None
    error: Optional[str] = None
    worker_id: Optional[str] = None
    #: Hardware features of the endpoint that ran the task (profiler inputs).
    cores_per_node: int = 1
    cpu_freq_ghz: float = 1.0
    ram_gb: float = 1.0

    @property
    def execution_time_s(self) -> float:
        return self.completed_at - self.started_at
