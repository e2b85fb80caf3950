"""Synthetic workloads: CPU-stress tasks, a hot shared dataset, random DAGs.

The scalability experiment (Fig. 6) uses large bags of fixed-duration
compute-intensive tasks; the elasticity experiment (Fig. 7) uses batches of
stress tasks pinned to specific endpoints; the data-plane scenarios fan many
consumers over a few hot input files; tests use small random DAGs to
exercise the engine against arbitrary dependency structures.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.client import UniFaaSClient
from repro.core.client import ENDPOINT_HINT_KWARG
from repro.data.remote_file import GlobusFile
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo, make_task_type

__all__ = [
    "build_hot_dataset_workload",
    "build_random_dag",
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
            info.register(future, spec.name, duration_s, output_mb)
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
    info.total_data_mb += sum(f.size_mb for f in shared)
    with client:
        prepares = []
        for _ in range(max(1, prepare_width)):
            future = prepare_fn()
            info.register(future, prepare_spec.name, prepare_spec.duration_s, 0.0)
            prepares.append(future)
        consumers = max(0, count - len(prepares))
        for i in range(consumers):
            gate = prepares[i % len(prepares)]
            first = shared[i % len(shared)]
            second = shared[(i + len(shared) // 2) % len(shared)]
            inputs = (first,) if second is first else (first, second)
            future = consume_fn(gate, *inputs)
            info.register(future, consume_spec.name, consume_spec.duration_s, output_mb)
    return info


def build_random_dag(
    client: UniFaaSClient,
    task_count: int,
    *,
    max_parents: int = 3,
    duration_range: tuple = (1.0, 10.0),
    output_range_mb: tuple = (0.0, 20.0),
    seed: int = 0,
) -> WorkloadInfo:
    """Submit a random DAG (used by property-style integration tests)."""
    if task_count < 1:
        raise ValueError("task_count must be >= 1")
    rng = np.random.default_rng(seed)
    info = WorkloadInfo(name="random_dag")
    futures: List = []
    with client:
        for index in range(task_count):
            duration = float(rng.uniform(*duration_range))
            output = float(rng.uniform(*output_range_mb))
            spec = TaskTypeSpec(name=f"random_{index}", duration_s=duration, output_mb=output)
            fn = make_task_type(spec)
            if futures:
                n_parents = int(rng.integers(0, min(max_parents, len(futures)) + 1))
                parent_indices = rng.choice(len(futures), size=n_parents, replace=False)
                parents = [futures[i] for i in parent_indices]
            else:
                parents = []
            future = fn(*parents)
            futures.append(future)
            info.register(future, "random", duration, output)
    return info
