"""Builders for simulated federated testbeds.

Experiments, examples and integration tests all need the same plumbing: a
simulation kernel, a set of endpoints on heterogeneous clusters, the service
facade, the execution fabric, a wide-area network and a transfer backend.
:func:`build_simulation` assembles them and
:meth:`SimulationEnvironment.make_client` produces a ready-to-use
:class:`~repro.core.client.UniFaaSClient` on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.client import UniFaaSClient
from repro.core.config import Config, ExecutorSpec
from repro.data.transfer import SimulatedTransferBackend
from repro.elastic.scaling import ScalingStrategy
from repro.faas.endpoint import CapacityChange, SimulatedEndpoint
from repro.faas.fabric import SimulatedFabric
from repro.faas.service import FederatedFaaSService
from repro.faas.types import ServiceLatencyModel, TaskExecutionRecord
from repro.metrics.collector import MetricsCollector
from repro.monitor.store import HistoryStore
from repro.sched.base import Scheduler
from repro.serving.federation import Federation
from repro.sim.hardware import ClusterSpec
from repro.sim.kernel import SimulationKernel
from repro.sim.network import NetworkModel
from repro.sim.rng import RngRegistry

__all__ = [
    "EndpointSetup",
    "SimulationEnvironment",
    "build_simulation",
]


@dataclass
class EndpointSetup:
    """How one endpoint should be deployed in a simulated experiment."""

    name: str
    cluster: ClusterSpec
    initial_workers: int = 0
    max_workers: Optional[int] = None
    auto_scale: bool = True
    idle_shutdown_s: float = 30.0
    failure_rate: float = 0.0
    duration_jitter: float = 0.02
    execution_overhead_s: float = 0.062
    cold_start_penalty_s: float = 0.0
    capacity_changes: List[CapacityChange] = field(default_factory=list)


@dataclass
class SimulationEnvironment:
    """A fully wired simulated deployment."""

    kernel: SimulationKernel
    service: FederatedFaaSService
    fabric: SimulatedFabric
    network: NetworkModel
    transfer_backend: SimulatedTransferBackend
    endpoints: Dict[str, SimulatedEndpoint]
    rng: RngRegistry

    def endpoint(self, name: str) -> SimulatedEndpoint:
        return self.endpoints[name]

    def make_config(
        self,
        scheduling_strategy: str = "DHA",
        *,
        transfer_type: str = "Globus",
        enable_delay_mechanism: bool = True,
        enable_rescheduling: bool = True,
        enable_scaling: bool = False,
        storage_gb: Optional[Dict[str, float]] = None,
        **overrides,
    ) -> Config:
        """Build a config for this deployment.

        ``storage_gb`` optionally maps endpoint names to per-endpoint staging
        storage budgets (the data plane's replica-store capacities); endpoints
        not listed fall back to ``Config.storage_capacity_gb``.
        """
        storage = storage_gb or {}
        executors = [
            ExecutorSpec(label=name, endpoint=name, storage_gb=storage.get(name))
            for name in self.endpoints
        ]
        return Config(
            executors=executors,
            scheduling_strategy=scheduling_strategy,
            file_transfer_type=transfer_type,
            enable_delay_mechanism=enable_delay_mechanism,
            enable_rescheduling=enable_rescheduling,
            enable_scaling=enable_scaling,
            **overrides,
        )

    def make_client(
        self,
        config: Optional[Config] = None,
        *,
        scheduler: Optional[Scheduler] = None,
        scaling_strategy: Optional[ScalingStrategy] = None,
        history_store: Optional[HistoryStore] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> UniFaaSClient:
        config = config or self.make_config()
        return UniFaaSClient(
            config,
            self.fabric,
            transfer_backend=self.transfer_backend,
            scheduler=scheduler,
            scaling_strategy=scaling_strategy,
            history_store=history_store,
            metrics=metrics,
        )

    def seed_full_knowledge(self, federation: Federation) -> None:
        """Give a federation's transfer profiler the true pairwise bandwidths.

        The paper's DHA experiments assume "full knowledge can be retrieved
        from the profilers"; this mirrors the probing transfers that would
        provide it.
        """
        names = list(self.endpoints)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                bandwidth = self.network.effective_bandwidth(src, dst, concurrency=1)
                federation.transfer_profiler.seed_bandwidth(src, dst, bandwidth)
        federation.transfer_profiler.update_models(force=True)

    def seed_execution_knowledge(self, federation: Federation, task_types) -> None:
        """Pre-train a federation's execution profiler with per-cluster durations.

        ``task_types`` is an iterable of
        :class:`~repro.workloads.spec.TaskTypeSpec`; for each (type, endpoint)
        pair a few synthetic observations are generated from the cluster's
        speed factor, standing in for the historical database a production
        deployment would load (§IV-B).
        """
        for spec in task_types:
            for name, endpoint in self.endpoints.items():
                hw = endpoint.cluster.hardware
                duration = spec.duration_s / endpoint.speed_factor
                for repeat in range(3):
                    federation.execution_profiler.observe(
                        TaskExecutionRecord(
                            task_id=f"seed-{spec.name}-{name}-{repeat}",
                            endpoint=name,
                            function_name=spec.name,
                            success=True,
                            submitted_at=0.0,
                            started_at=0.0,
                            completed_at=duration,
                            input_mb=0.0,
                            output_mb=spec.output_mb,
                            cores_per_node=hw.cores_per_node,
                            cpu_freq_ghz=hw.cpu_freq_ghz,
                            ram_gb=hw.ram_gb,
                        )
                    )
        federation.execution_profiler.update_models(force=True)


def build_simulation(
    endpoints: Sequence[EndpointSetup],
    *,
    network: Optional[NetworkModel] = None,
    latency: Optional[ServiceLatencyModel] = None,
    seed: int = 0,
    batch_size: int = 64,
) -> SimulationEnvironment:
    """Assemble a simulated federated deployment."""
    if not endpoints:
        raise ValueError("at least one endpoint is required")
    rng = RngRegistry(seed=seed)
    kernel = SimulationKernel()
    service = FederatedFaaSService(kernel, latency=latency or ServiceLatencyModel())
    net = network or NetworkModel.uniform(
        [e.name for e in endpoints], bandwidth_mbps=150.0, seed=seed
    )
    built: Dict[str, SimulatedEndpoint] = {}
    for setup in endpoints:
        endpoint = SimulatedEndpoint(
            setup.name,
            setup.cluster,
            kernel,
            rng=rng.stream(f"endpoint-{setup.name}"),
            initial_workers=setup.initial_workers,
            max_workers=setup.max_workers,
            auto_scale=setup.auto_scale,
            idle_shutdown_s=setup.idle_shutdown_s,
            failure_rate=setup.failure_rate,
            duration_jitter=setup.duration_jitter,
            execution_overhead_s=setup.execution_overhead_s,
            cold_start_penalty_s=setup.cold_start_penalty_s,
        )
        if setup.capacity_changes:
            endpoint.set_capacity_schedule(setup.capacity_changes)
        service.register_endpoint(endpoint)
        built[setup.name] = endpoint
    fabric = SimulatedFabric(
        kernel, service, batch_size=batch_size, rng=rng.stream("fabric")
    )
    backend = SimulatedTransferBackend(kernel, net)
    return SimulationEnvironment(
        kernel=kernel,
        service=service,
        fabric=fabric,
        network=net,
        transfer_backend=backend,
        endpoints=built,
        rng=rng,
    )

