"""Fig. 6 — strong and weak scaling of UniFaaS across endpoints.

The paper deploys 1–16 endpoints of 24 workers each (all on Qiming) and runs
bags of 1 s and 5 s compute-intensive tasks: strong scaling fixes the total
task count (100 000 × 1 s, 20 000 × 5 s), weak scaling fixes the work per
worker (260 × 1 s or 52 × 5 s tasks per worker).  Completion time should drop
close to ideally until scheduling/submission overheads start to dominate for
the short tasks.

The ``scale`` parameter shrinks the task counts proportionally so the
benchmark suite stays fast; the scaling *shape* is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.sim.hardware import QIMING
from repro.sim.network import NetworkModel
from repro.workloads.synthetic import build_stress_workload

__all__ = ["ScalingPoint", "ScalingResult", "run_scaling_experiment"]

#: Paper task counts for strong scaling.
STRONG_SCALING_TASKS = {1.0: 100_000, 5.0: 20_000}
#: Paper per-worker task counts for weak scaling.
WEAK_SCALING_TASKS_PER_WORKER = {1.0: 260, 5.0: 52}
WORKERS_PER_ENDPOINT = 24


@dataclass
class ScalingPoint:
    endpoints: int
    tasks: int
    completion_time_s: float
    ideal_time_s: float

    @property
    def efficiency(self) -> float:
        if self.completion_time_s <= 0:
            return 0.0
        return self.ideal_time_s / self.completion_time_s


@dataclass
class ScalingResult:
    mode: str
    task_duration_s: float
    points: List[ScalingPoint] = field(default_factory=list)

    def completion_times(self) -> Dict[int, float]:
        return {p.endpoints: p.completion_time_s for p in self.points}

    def speedup(self) -> Dict[int, float]:
        base = self.points[0].completion_time_s if self.points else 0.0
        return {
            p.endpoints: (base / p.completion_time_s if p.completion_time_s else 0.0)
            for p in self.points
        }


def _run_one(n_endpoints: int, task_count: int, task_duration_s: float, seed: int) -> float:
    names = [f"qiming_{i}" for i in range(n_endpoints)]
    setups = [
        EndpointSetup(
            name=name,
            cluster=QIMING,
            initial_workers=WORKERS_PER_ENDPOINT,
            max_workers=WORKERS_PER_ENDPOINT,
            auto_scale=False,
            duration_jitter=0.0,
            execution_overhead_s=0.01,
        )
        for name in names
    ]
    network = NetworkModel.uniform(names, bandwidth_mbps=500.0, jitter=0.0, seed=seed)
    latency = ServiceLatencyModel(
        submit_latency_s=0.004,
        dispatch_latency_s=0.05,
        result_poll_latency_s=0.05,
        endpoint_overhead_s=0.01,
    )
    env = build_simulation(setups, network=network, latency=latency, seed=seed, batch_size=256)
    client = env.make_client(env.make_config("CAPACITY"))
    build_stress_workload(client, task_count, task_duration_s)
    client.run()
    return client.summary().makespan_s


def run_scaling_experiment(
    mode: str = "strong",
    task_duration_s: float = 5.0,
    endpoint_counts: Sequence[int] = (1, 2, 4, 8, 16),
    *,
    scale: float = 1.0,
    seed: int = 0,
) -> ScalingResult:
    """Run the Fig. 6 scaling sweep and return completion times per point."""
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    if task_duration_s not in STRONG_SCALING_TASKS:
        raise ValueError(f"task_duration_s must be one of {sorted(STRONG_SCALING_TASKS)}")

    result = ScalingResult(mode=mode, task_duration_s=task_duration_s)
    base_time: float | None = None
    for n in endpoint_counts:
        if mode == "strong":
            tasks = max(1, int(STRONG_SCALING_TASKS[task_duration_s] * scale))
        else:
            per_worker = WEAK_SCALING_TASKS_PER_WORKER[task_duration_s]
            tasks = max(1, int(per_worker * WORKERS_PER_ENDPOINT * n * scale))
        completion = _run_one(n, tasks, task_duration_s, seed)
        if base_time is None:
            base_time = completion
        if mode == "strong":
            ideal = base_time * endpoint_counts[0] / n
        else:
            ideal = base_time
        result.points.append(
            ScalingPoint(endpoints=n, tasks=tasks, completion_time_s=completion, ideal_time_s=ideal)
        )
    return result
