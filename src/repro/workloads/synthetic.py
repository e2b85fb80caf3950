"""Synthetic workloads: CPU-stress tasks and a hot shared dataset.

The scalability experiment (Fig. 6) uses large bags of fixed-duration
compute-intensive tasks; the elasticity experiment (Fig. 7) uses batches of
stress tasks pinned to specific endpoints; the data-plane scenarios fan many
consumers over a few hot input files.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.client import UniFaaSClient
from repro.core.client import ENDPOINT_HINT_KWARG
from repro.data.remote_file import GlobusFile
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo, make_task_type

__all__ = [
    "build_hot_dataset_workload",
    "build_stress_workload",
    "hot_dataset_task_types",
    "stress_task_type",
]


def stress_task_type(duration_s: float, output_mb: float = 0.0, name: Optional[str] = None) -> TaskTypeSpec:
    """A compute-intensive task of fixed duration (the paper's while-loop stress task)."""
    return TaskTypeSpec(
        name=name or f"stress_{duration_s:g}s",
        duration_s=duration_s,
        output_mb=output_mb,
    )


def build_stress_workload(
    client: UniFaaSClient,
    count: int,
    duration_s: float,
    *,
    output_mb: float = 0.0,
    endpoint: Optional[str] = None,
    jitter: float = 0.0,
) -> WorkloadInfo:
    """Submit ``count`` independent stress tasks of ``duration_s`` seconds.

    ``endpoint`` pins every task to one endpoint (used by the elasticity
    experiment, where each endpoint runs its own task type).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    spec = stress_task_type(duration_s, output_mb)
    fn = make_task_type(spec, jitter)
    info = WorkloadInfo(name=spec.name)
    kwargs = {ENDPOINT_HINT_KWARG: endpoint} if endpoint else {}
    with client:
        for _ in range(count):
            future = fn(**kwargs)
            info.register(future, spec.name)
    return info


def hot_dataset_task_types(duration_s: float, output_mb: float) -> List[TaskTypeSpec]:
    """The two task types of :func:`build_hot_dataset_workload`."""
    return [
        TaskTypeSpec(name="hot_prepare", duration_s=duration_s, output_mb=0.0),
        TaskTypeSpec(name="hot_consume", duration_s=duration_s, output_mb=output_mb),
    ]


def build_hot_dataset_workload(
    client: UniFaaSClient,
    count: int,
    duration_s: float,
    *,
    output_mb: float,
    prepare_width: int,
    shared_files: int,
    shared_mb: float,
) -> WorkloadInfo:
    """Many consumers share a hot input dataset.

    ``shared_files`` large files of ``shared_mb`` live on the *last* endpoint
    of the topology; a layer of ``prepare_width`` compute-only *prepare* tasks
    gates a wide fan of *consume* tasks (``count`` tasks in all) that each
    read two of the shared files.  While the prepare layer executes, every
    consumer is *ready-soon* — exactly the window the data plane's prefetcher
    pipelines the hot files into, and the re-used replicas are what the
    capacity-bounded store must keep (or cheaply re-stage) under eviction
    pressure.
    """
    prepare_spec, consume_spec = hot_dataset_task_types(duration_s, output_mb)
    prepare_fn = make_task_type(prepare_spec)
    consume_fn = make_task_type(consume_spec)
    # Presets put a small "datastore" site last, so compute endpoints must
    # pull the hot files over the WAN (or serve them from prefetched replicas).
    home = client.fabric.endpoint_names()[-1]
    shared = [
        GlobusFile(f"hot-{i:03d}", size_mb=shared_mb, location=home)
        for i in range(max(1, shared_files))
    ]
    info = WorkloadInfo(name="hot_dataset")
    with client:
        prepares = []
        for _ in range(max(1, prepare_width)):
            future = prepare_fn()
            info.register(future, prepare_spec.name)
            prepares.append(future)
        consumers = max(0, count - len(prepares))
        for i in range(consumers):
            gate = prepares[i % len(prepares)]
            first = shared[i % len(shared)]
            second = shared[(i + len(shared) // 2) % len(shared)]
            inputs = (first,) if second is first else (first, second)
            future = consume_fn(gate, *inputs)
            info.register(future, consume_spec.name)
    return info

