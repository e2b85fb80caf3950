"""Tables IV/V and Figs. 9–13 — the drug-screening and Montage case studies.

Static resource capacity (§VI-A, Table IV, Figs. 9–11)
-------------------------------------------------------
Both workflows run across the four-cluster testbed with fixed worker
deployments (drug screening: 2000/384/48/52 workers on Taiyi/Qiming/Dept/Lab;
Montage: 120/240/48/52) under the Capacity, Locality and DHA schedulers, and
against a single-cluster baseline (Taiyi only for drug screening, Qiming only
for Montage).  The metrics of interest are the makespan, the volume of data
moved between endpoints, worker utilisation over time, the number of tasks
sitting in data staging, and how many tasks each worker received.

Dynamic resource capacity (§VI-B, Table V, Figs. 12–13)
--------------------------------------------------------
The same workflows run while worker capacity changes mid-flight (another
user's allocation starting or ending); DHA is additionally run with its
re-scheduling mechanism disabled to isolate that mechanism's contribution.

Every run is a :class:`~repro.scenarios.spec.ScenarioSpec` on the
``"paper"`` substrate, built by :func:`~repro.scenarios.presets.paper_spec`
and executed by :func:`~repro.scenarios.spec.run_scenario`, the runner every
preset goes through.  Its ``scale`` shrinks the workflow *and* the worker
deployments by the same ratio, preserving the task-per-worker pressure (and
therefore the relative makespans) while keeping run times suitable for a
benchmark suite.  :class:`CaseStudyResult` is what the tables and figures
read of one run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.metrics.collector import TimeSeries
from repro.scenarios.presets import paper_spec
from repro.scenarios.spec import ScenarioSpec, run_scenario

__all__ = [
    "CaseStudyResult",
    "run_dynamic_capacity_study",
    "run_spec",
    "run_static_capacity_study",
]

#: The schedulers the paper's case studies and Table III compare, in order.
PAPER_SCHEDULERS = ("CAPACITY", "LOCALITY", "DHA")


@dataclass
class CaseStudyResult:
    """What the tables and figures read of one case-study run."""

    workflow: str
    experiment: str
    makespan_s: float
    transfer_size_gb: float
    task_count: int
    completed_tasks: int
    rescheduled_tasks: int
    deployment: Dict[str, int]
    tasks_per_endpoint: Dict[str, int]
    utilization: TimeSeries
    staging_tasks: TimeSeries
    active_workers: Dict[str, TimeSeries]
    rescheduled_series: TimeSeries
    scheduler_overhead_per_task_s: float

    def tasks_per_worker(self) -> Dict[str, float]:
        """Tasks each endpoint executed, normalised by its worker count (Fig. 11)."""
        out = {}
        for endpoint, count in self.tasks_per_endpoint.items():
            workers = self.deployment.get(endpoint, 0)
            out[endpoint] = count / workers if workers else 0.0
        return out


def run_spec(spec: ScenarioSpec, experiment: Optional[str] = None) -> CaseStudyResult:
    """Run one single-workflow spec and keep what the tables and figures read."""
    result = run_scenario(spec)
    metrics = result.metrics
    return CaseStudyResult(
        workflow=spec.workload.kind,
        experiment=experiment or spec.scheduler,
        makespan_s=result.makespan_s,
        transfer_size_gb=result.staged_mb / 1024.0,
        task_count=result.total_tasks,
        completed_tasks=result.completed_tasks,
        rescheduled_tasks=result.rescheduled_tasks,
        deployment={endpoint.name: endpoint.workers for endpoint in spec.topology},
        tasks_per_endpoint=dict(result.tasks_per_endpoint),
        utilization=metrics.utilization,
        staging_tasks=metrics.staging_tasks,
        active_workers=dict(metrics.active_workers),
        rescheduled_series=metrics.rescheduled_tasks_series,
        scheduler_overhead_per_task_s=metrics.scheduler_overhead_per_task_s(),
    )


def run_static_capacity_study(
    workflow: str, *, scale: float = 0.05, seed: int = 0
) -> Dict[str, CaseStudyResult]:
    """Table IV: static resource capacity, plus Figs. 9–11 time-series.

    One run per scheduler of :data:`PAPER_SCHEDULERS`, then the
    single-cluster baseline.
    """
    results = {
        scheduler: run_spec(paper_spec(workflow, "static", scheduler, scale=scale, seed=seed))
        for scheduler in PAPER_SCHEDULERS
    }
    name = "Baseline: Only " + ("Taiyi" if workflow == "drug_screening" else "Qiming")
    spec = paper_spec(workflow, "baseline", "CAPACITY", scale=scale, seed=seed)
    results[name] = run_spec(spec, name)
    return results


def run_dynamic_capacity_study(
    workflow: str, *, scale: float = 0.05, seed: int = 0
) -> Dict[str, CaseStudyResult]:
    """Table V: dynamic resource capacity, plus Figs. 12–13 time-series.

    One run per scheduler of :data:`PAPER_SCHEDULERS`, then DHA without
    re-scheduling.
    """
    results = {
        scheduler: run_spec(paper_spec(workflow, "dynamic", scheduler, scale=scale, seed=seed))
        for scheduler in PAPER_SCHEDULERS
    }
    name = "DHA without re-sched."
    spec = paper_spec(workflow, "dynamic", "DHA", scale=scale, seed=seed)
    results[name] = run_spec(replace(spec, enable_rescheduling=False), name)
    return results
