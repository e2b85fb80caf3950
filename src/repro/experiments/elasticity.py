"""Fig. 7 — multi-endpoint elasticity.

Three endpoints (on Qiming, the Dept. cluster and the Lab cluster) are
deployed with auto-scaling enabled and worker caps of 100, 40 and 20.  At
t=10 s the experiment submits 50×30 s tasks pinned to EP1, 20×15 s tasks to
EP2 and 10×10 s tasks to EP3; at t=70 s it submits 200/80/40 of the same
tasks; the process is repeated a second time.  Each endpoint scales out to
meet its own demand, returns its workers after the 30 s idle interval, and
does so independently of the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.metrics.collector import MetricsCollector, TimeSeries
from repro.sim.hardware import DEPT_CLUSTER, LAB_CLUSTER, QIMING
from repro.sim.network import NetworkModel
from repro.workloads.synthetic import build_stress_workload

__all__ = ["ElasticityResult", "run_elasticity_experiment", "PAPER_PHASES"]

#: (time, {endpoint: (task_count, duration_s)}) — §V-D, repeated twice.
PAPER_PHASES: List[Tuple[float, Dict[str, Tuple[int, float]]]] = [
    (10.0, {"ep1": (50, 30.0), "ep2": (20, 15.0), "ep3": (10, 10.0)}),
    (70.0, {"ep1": (200, 30.0), "ep2": (80, 15.0), "ep3": (40, 10.0)}),
    (210.0, {"ep1": (50, 30.0), "ep2": (20, 15.0), "ep3": (10, 10.0)}),
    (270.0, {"ep1": (200, 30.0), "ep2": (80, 15.0), "ep3": (40, 10.0)}),
]

#: Worker caps per endpoint (paper: 100, 40, 20), in workers.
PAPER_MAX_WORKERS = {"ep1": 100, "ep2": 40, "ep3": 20}
#: Each node contributes 20 workers (paper: "each node has 20 workers").
WORKERS_PER_NODE = 20

#: Simulated seconds the run continues after the last task, so idle
#: endpoints can scale back in.
_DRAIN_TIME_S = 120.0


@dataclass
class ElasticityResult:
    """Time-series of pending tasks and active workers per endpoint."""

    active_workers: Dict[str, TimeSeries] = field(default_factory=dict)
    pending_tasks: Dict[str, TimeSeries] = field(default_factory=dict)
    max_workers_observed: Dict[str, int] = field(default_factory=dict)
    completed_tasks: int = 0
    makespan_s: float = 0.0

    def scaled_to_zero(self, endpoint: str) -> bool:
        """Whether the endpoint eventually released all its workers."""
        series = self.active_workers.get(endpoint)
        if series is None or not series.values:
            return False
        return series.values[-1] == 0


def run_elasticity_experiment(
    phases: Sequence[Tuple[float, Dict[str, Tuple[int, float]]]] = PAPER_PHASES,
    *,
    max_workers: Dict[str, int] = None,
    idle_shutdown_s: float = 30.0,
    sample_interval_s: float = 2.0,
    seed: int = 0,
) -> ElasticityResult:
    """Run the Fig. 7 elasticity scenario and return the time-series."""
    caps = dict(max_workers or PAPER_MAX_WORKERS)
    clusters = {"ep1": QIMING, "ep2": DEPT_CLUSTER, "ep3": LAB_CLUSTER}
    setups = []
    for name, cap in caps.items():
        cluster = clusters.get(name, QIMING).with_overrides(workers_per_node=WORKERS_PER_NODE)
        setups.append(
            EndpointSetup(
                name=name,
                cluster=cluster,
                initial_workers=0,
                max_workers=cap,
                auto_scale=True,
                idle_shutdown_s=idle_shutdown_s,
                duration_jitter=0.0,
                execution_overhead_s=0.0,
            )
        )
    network = NetworkModel.uniform(list(caps), bandwidth_mbps=200.0, jitter=0.0, seed=seed)
    latency = ServiceLatencyModel(
        submit_latency_s=0.004, dispatch_latency_s=0.05, result_poll_latency_s=0.05
    )
    env = build_simulation(setups, network=network, latency=latency, seed=seed)
    metrics = MetricsCollector(sample_interval_s=sample_interval_s)
    client = env.make_client(env.make_config("LOCALITY", enable_scaling=False), metrics=metrics)

    def sample_now() -> None:
        pending = {
            name: env.endpoint(name).queued_tasks + client.endpoint_monitor.mock(name).outstanding_tasks
            if name in client.endpoint_monitor.endpoint_names()
            else env.endpoint(name).queued_tasks
            for name in caps
        }
        metrics.sample(env.kernel.clock.now, env.fabric.worker_counts(), 0, pending)

    # Regular sampling independent of the client loop so scale-down during
    # idle periods is captured too.
    env.kernel.schedule_periodic(sample_interval_s, sample_now, daemon=True, start_delay=0.0)

    completed = 0
    for phase_time, submissions in phases:
        # A previous phase may already have pushed the clock past this phase's
        # nominal submission time; submit immediately in that case.
        env.kernel.run(until=max(phase_time, env.kernel.clock.now))
        for endpoint, (count, duration) in submissions.items():
            info = build_stress_workload(client, count, duration, endpoint=endpoint)
            completed += info.task_count
        client.run()
    # Let idle shutdown drain the pools so the final scale-to-zero is visible.
    env.kernel.run(until=env.kernel.clock.now + _DRAIN_TIME_S)

    result = ElasticityResult(
        active_workers={name: metrics.active_workers[name] for name in caps},
        pending_tasks={name: metrics.pending_tasks[name] for name in caps},
        max_workers_observed={
            name: int(metrics.active_workers[name].max()) for name in caps
        },
        completed_tasks=metrics.completed_count,
        makespan_s=env.kernel.clock.now,
    )
    return result
