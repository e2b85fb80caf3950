"""Shared fixtures for scheduler tests: a lightweight scheduling context."""

from dataclasses import dataclass, field
from typing import Dict

import pytest

from repro.core.config import Config, ExecutorSpec
from repro.core.dag import Task, TaskGraph, TaskState
from repro.core.functions import SimProfile, function
from repro.data.remote_file import GlobusFile
from repro.data.transfer import SimulatedTransferBackend
from repro.dataplane.plane import DataPlane
from repro.faas.types import EndpointStatus
from repro.monitor.endpoint_monitor import EndpointMonitor
from repro.profiling.execution import ExecutionProfiler
from repro.profiling.transfer import TransferProfiler
from repro.sched.base import SchedulingContext
from repro.sim.kernel import SimulationKernel
from repro.sim.network import NetworkModel


@function(sim_profile=SimProfile(base_time_s=10.0, output_base_mb=1.0))
def generic_work(*args, **kwargs):
    return None


@dataclass
class EndpointSpec:
    """Describes one fake endpoint for scheduler tests."""

    workers: int = 4
    busy: int = 0
    pending: int = 0
    cores: int = 24
    freq: float = 2.6
    ram: float = 64.0
    speed: float = 1.0


@dataclass
class ContextBundle:
    """Everything tests need to drive a scheduler by hand."""

    context: SchedulingContext
    kernel: SimulationKernel
    graph: TaskGraph
    monitor: EndpointMonitor
    data_manager: DataPlane
    execution_profiler: ExecutionProfiler
    transfer_profiler: TransferProfiler
    statuses: Dict[str, EndpointSpec] = field(default_factory=dict)


def build_context(endpoints: Dict[str, EndpointSpec], bandwidth=100.0) -> ContextBundle:
    kernel = SimulationKernel()
    specs = dict(endpoints)

    def provider(name: str) -> EndpointStatus:
        spec = specs[name]
        return EndpointStatus(
            endpoint=name,
            online=True,
            active_workers=spec.workers,
            busy_workers=spec.busy,
            idle_workers=spec.workers - spec.busy,
            pending_tasks=spec.pending,
            max_workers=spec.workers * 4,
            cores_per_node=spec.cores,
            cpu_freq_ghz=spec.freq,
            ram_gb=spec.ram,
            as_of=kernel.clock.now,
        )

    monitor = EndpointMonitor(provider, kernel.clock, sync_interval_s=60.0)
    for name in specs:
        monitor.register(name)

    network = NetworkModel.uniform(specs, bandwidth_mbps=bandwidth, jitter=0.0)
    config = Config(
        executors=[ExecutorSpec(label=name, endpoint=name) for name in specs],
        scheduling_strategy="DHA",
    )
    # The plane's policy follows the config, as the serving layer builds it.
    data_manager = DataPlane(
        SimulatedTransferBackend(kernel, network),
        kernel.clock,
        published=not config.enable_dataplane,
    )
    graph = TaskGraph()
    execution_profiler = ExecutionProfiler()
    transfer_profiler = TransferProfiler()
    context = SchedulingContext(
        graph=graph,
        endpoint_monitor=monitor,
        execution_profiler=execution_profiler,
        transfer_profiler=transfer_profiler,
        data_manager=data_manager,
        config=config,
        clock=kernel.clock,
        speed_factors={name: spec.speed for name, spec in specs.items()},
    )
    return ContextBundle(
        context=context,
        kernel=kernel,
        graph=graph,
        monitor=monitor,
        data_manager=data_manager,
        execution_profiler=execution_profiler,
        transfer_profiler=transfer_profiler,
        statuses=specs,
    )


def add_task(graph: TaskGraph, deps=(), input_files=(), fn=generic_work) -> Task:
    task = Task(function=fn, dependencies={d.task_id for d in deps})
    task.input_files = list(input_files)
    graph.add_task(task)
    return task


def place(graph: TaskGraph, task: Task, endpoint: str, state=TaskState.SCHEDULED) -> None:
    """Apply a placement the way the engine does: the endpoint, then a
    placed-but-undispatched state (the task store then counts the claim)."""
    graph.store.set_endpoint(task._row, endpoint)
    graph.set_state(task, state)


def input_file(size_mb: float, location: str) -> GlobusFile:
    return GlobusFile(f"data-{size_mb}-{location}", size_mb=size_mb, location=location)


@pytest.fixture
def two_endpoint_bundle():
    return build_context({"fast": EndpointSpec(workers=8, speed=1.5), "slow": EndpointSpec(workers=4, speed=1.0)})
