"""Workload specification helpers.

A workload is described by a set of :class:`TaskTypeSpec` (one per node type
in Fig. 8) and a generator function that composes the DAG through the normal
UniFaaS programming model — decorated functions invoked with futures — so the
evaluation exercises exactly the code path a user would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.functions import FederatedFunction, SimProfile
from repro.core.futures import UniFuture

__all__ = ["TaskTypeSpec", "WorkloadInfo", "make_task_type"]


@dataclass(frozen=True)
class TaskTypeSpec:
    """One task type (a letter node in Fig. 8)."""

    name: str
    #: Execution time of one task on a reference-speed core, in seconds.
    duration_s: float
    #: Output data produced per task, in MB.
    output_mb: float
    #: Extra seconds per MB of input data (0 keeps durations size-independent).
    seconds_per_input_mb: float = 0.0
    #: Workers a task of this type occupies.
    cores: int = 1
    #: Per-attempt failure probability (poison injection; see SimProfile).
    failure_rate: float = 0.0

    def to_profile(self, jitter: float = 0.0) -> SimProfile:
        return SimProfile(
            base_time_s=self.duration_s,
            time_per_input_mb_s=self.seconds_per_input_mb,
            output_base_mb=self.output_mb,
            jitter=jitter,
            cores=self.cores,
            failure_rate=self.failure_rate,
        )


def make_task_type(spec: TaskTypeSpec, jitter: float = 0.0) -> FederatedFunction:
    """Create the federated function implementing one task type.

    The callable body is a no-op: in simulation mode it never runs, and the
    workloads are only ever executed in simulation mode (their real
    counterparts need chemistry/astronomy toolchains that are out of scope).
    """

    def _body(*args, **kwargs):  # pragma: no cover - never executed in simulation
        return None

    _body.__name__ = spec.name
    return FederatedFunction(_body, name=spec.name, sim_profile=spec.to_profile(jitter))


@dataclass
class WorkloadInfo:
    """What a workload generator hands back to the caller."""

    name: str
    futures: List[UniFuture] = field(default_factory=list)
    task_count: int = 0
    tasks_by_type: Dict[str, int] = field(init=False, default_factory=dict)
    #: Scale factor the generator was invoked with.
    scale: float = 1.0

    def register(self, future: UniFuture, type_name: str) -> None:
        self.futures.append(future)
        self.task_count += 1
        self.tasks_by_type[type_name] = self.tasks_by_type.get(type_name, 0) + 1
