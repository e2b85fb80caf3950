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

Every entry point takes a ``scale`` factor that shrinks the workflow *and*
the worker deployments by the same ratio, preserving the task-per-worker
pressure (and therefore the relative makespans) while keeping run times
suitable for a benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.client import UniFaaSClient
from repro.experiments.environment import (
    build_simulation,
    paper_testbed_network,
    paper_testbed_setups,
)
from repro.faas.endpoint import CapacityChange
from repro.faas.types import ServiceLatencyModel
from repro.metrics.collector import MetricsCollector, TimeSeries
from repro.workloads.drug_screening import DRUG_SCREENING_TYPES, build_drug_screening_workflow
from repro.workloads.montage import MONTAGE_TYPES, build_montage_workflow
from repro.workloads.spec import WorkloadInfo

__all__ = [
    "CaseStudyResult",
    "DRUG_STATIC_DEPLOYMENT",
    "MONTAGE_STATIC_DEPLOYMENT",
    "DRUG_DYNAMIC_DEPLOYMENT",
    "MONTAGE_DYNAMIC_DEPLOYMENT",
    "run_case_study",
    "run_static_capacity_study",
    "run_dynamic_capacity_study",
]

#: §VI-A worker deployments (full scale).
DRUG_STATIC_DEPLOYMENT = {"taiyi": 2000, "qiming": 384, "dept": 48, "lab": 52}
MONTAGE_STATIC_DEPLOYMENT = {"taiyi": 120, "qiming": 240, "dept": 48, "lab": 52}
DRUG_BASELINE_DEPLOYMENT = {"taiyi": 2000}
MONTAGE_BASELINE_DEPLOYMENT = {"qiming": 240}

#: §VI-B initial deployments and capacity-change schedules (full scale).
DRUG_DYNAMIC_DEPLOYMENT = {"taiyi": 400, "qiming": 600, "dept": 48, "lab": 52}
DRUG_DYNAMIC_CHANGES = {"qiming": [(120.0, +600)], "taiyi": [(540.0, -280)]}
MONTAGE_DYNAMIC_DEPLOYMENT = {"taiyi": 40, "qiming": 240, "dept": 48, "lab": 52}
MONTAGE_DYNAMIC_CHANGES = {"taiyi": [(120.0, +80)], "qiming": [(300.0, -168)]}

#: Fraction of the paper's task counts used for the dynamic-capacity study
#: (drug screening uses 12 001 of the 24 001 functions in §VI-B).
DRUG_DYNAMIC_WORKFLOW_FRACTION = 0.5


@dataclass
class CaseStudyResult:
    """Outcome of one (workflow, scheduler) case-study run."""

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


WorkflowBuilder = Callable[[UniFaaSClient], WorkloadInfo]


def _scaled_deployment(deployment: Dict[str, int], scale: float) -> Dict[str, int]:
    return {name: max(1, int(round(count * scale))) for name, count in deployment.items()}


def _scaled_changes(
    changes: Dict[str, List[tuple]], scale: float
) -> Dict[str, List[CapacityChange]]:
    scaled: Dict[str, List[CapacityChange]] = {}
    for name, entries in changes.items():
        scaled[name] = [
            CapacityChange(at_time_s=t, delta_workers=int(round(delta * scale)) or (1 if delta > 0 else -1))
            for t, delta in entries
        ]
    return scaled


def _workflow_builder(workflow: str, scale: float, fraction: float = 1.0) -> WorkflowBuilder:
    if workflow == "drug_screening":
        def build(client: UniFaaSClient) -> WorkloadInfo:
            return build_drug_screening_workflow(client, scale=scale * fraction)
        return build
    if workflow == "montage":
        def build(client: UniFaaSClient) -> WorkloadInfo:
            return build_montage_workflow(client, scale=scale * fraction)
        return build
    raise ValueError(f"unknown workflow {workflow!r}; expected 'drug_screening' or 'montage'")


def _task_types(workflow: str):
    return (
        DRUG_SCREENING_TYPES.values()
        if workflow == "drug_screening"
        else MONTAGE_TYPES.values()
    )


def run_case_study(
    workflow: str,
    scheduler: str,
    deployment: Dict[str, int],
    *,
    scale: float = 0.05,
    capacity_changes: Optional[Dict[str, List[tuple]]] = None,
    enable_rescheduling: bool = True,
    enable_delay_mechanism: bool = True,
    disable_endpoint_mocking: bool = False,
    workflow_fraction: float = 1.0,
    label: Optional[str] = None,
    seed: int = 0,
    sample_interval_s: float = 20.0,
) -> CaseStudyResult:
    """Run one (workflow, scheduler, deployment) combination."""
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    scaled_deployment = _scaled_deployment(deployment, scale)
    changes = _scaled_changes(capacity_changes or {}, scale)

    setups = paper_testbed_setups(
        scaled_deployment, auto_scale=False, capacity_changes=changes
    )
    latency = ServiceLatencyModel(
        submit_latency_s=0.004,
        dispatch_latency_s=0.1,
        result_poll_latency_s=0.1,
        endpoint_overhead_s=0.062,
    )
    env = build_simulation(
        setups, network=paper_testbed_network(seed=seed), latency=latency, seed=seed, batch_size=128
    )
    metrics = MetricsCollector(sample_interval_s=sample_interval_s)
    config = env.make_config(
        scheduler,
        enable_rescheduling=enable_rescheduling,
        enable_delay_mechanism=enable_delay_mechanism,
        enable_scaling=False,
        rescheduling_interval_s=30.0,
        endpoint_sync_interval_s=30.0,
        # The case studies reproduce the published system, whose data layer
        # is the plain §IV-E FIFO: the data plane's multi-source staging and
        # prefetching would (deliberately) break Table IV/V invariants such
        # as "Capacity moves the least data".  The plane has its own
        # scenarios (storage-pressure, hot-dataset) and benchmark gates.
        enable_dataplane=False,
        # Same reasoning for the global placement plan: the published
        # system places purely greedily per task, so the facility-location
        # steering would shift the Table IV/V makespans and data volumes.
        # The plan has its own presets and the `placement` benchmark gate.
        enable_placement_plan=False,
    )
    client = env.make_client(config, metrics=metrics)
    if disable_endpoint_mocking:
        # Ablation: the scheduler only ever sees the service's periodically
        # refreshed (stale) endpoint status instead of the local mocks.
        client.endpoint_monitor.mocking_enabled = False

    if scheduler.upper() in ("DHA", "HEFT"):
        # §VI-A: "For DHA, we assume full knowledge can be retrieved from the
        # profilers."
        env.seed_full_knowledge(client)
        env.seed_execution_knowledge(client, _task_types(workflow))

    builder = _workflow_builder(workflow, scale, workflow_fraction)
    info = builder(client)
    client.run()

    summary = client.summary()
    return CaseStudyResult(
        workflow=workflow,
        experiment=label or scheduler,
        makespan_s=summary.makespan_s,
        transfer_size_gb=summary.transfer_volume_gb,
        task_count=info.task_count,
        completed_tasks=summary.completed_tasks,
        rescheduled_tasks=summary.rescheduled_tasks,
        deployment=scaled_deployment,
        tasks_per_endpoint=dict(summary.tasks_per_endpoint),
        utilization=metrics.utilization,
        staging_tasks=metrics.staging_tasks,
        active_workers=dict(metrics.active_workers),
        rescheduled_series=metrics.rescheduled_tasks_series,
        scheduler_overhead_per_task_s=summary.scheduler_overhead_per_task_s,
    )


def run_static_capacity_study(
    workflow: str,
    *,
    scale: float = 0.05,
    schedulers: Sequence[str] = ("CAPACITY", "LOCALITY", "DHA"),
    include_baseline: bool = True,
    seed: int = 0,
) -> Dict[str, CaseStudyResult]:
    """Table IV: static resource capacity, plus Figs. 9–11 time-series."""
    deployment = (
        DRUG_STATIC_DEPLOYMENT if workflow == "drug_screening" else MONTAGE_STATIC_DEPLOYMENT
    )
    results: Dict[str, CaseStudyResult] = {}
    for scheduler in schedulers:
        results[scheduler] = run_case_study(
            workflow, scheduler, deployment, scale=scale, seed=seed
        )
    if include_baseline:
        if workflow == "drug_screening":
            baseline_deployment, baseline_name = DRUG_BASELINE_DEPLOYMENT, "Baseline: Only Taiyi"
        else:
            baseline_deployment, baseline_name = MONTAGE_BASELINE_DEPLOYMENT, "Baseline: Only Qiming"
        results[baseline_name] = run_case_study(
            workflow,
            "CAPACITY",
            baseline_deployment,
            scale=scale,
            label=baseline_name,
            seed=seed,
        )
    return results


def run_dynamic_capacity_study(
    workflow: str,
    *,
    scale: float = 0.05,
    schedulers: Sequence[str] = ("CAPACITY", "LOCALITY", "DHA"),
    include_no_rescheduling: bool = True,
    seed: int = 0,
) -> Dict[str, CaseStudyResult]:
    """Table V: dynamic resource capacity, plus Figs. 12–13 time-series."""
    if workflow == "drug_screening":
        deployment, changes = DRUG_DYNAMIC_DEPLOYMENT, DRUG_DYNAMIC_CHANGES
        fraction = DRUG_DYNAMIC_WORKFLOW_FRACTION
    else:
        deployment, changes = MONTAGE_DYNAMIC_DEPLOYMENT, MONTAGE_DYNAMIC_CHANGES
        fraction = 1.0

    results: Dict[str, CaseStudyResult] = {}
    for scheduler in schedulers:
        results[scheduler] = run_case_study(
            workflow,
            scheduler,
            deployment,
            scale=scale,
            capacity_changes=changes,
            workflow_fraction=fraction,
            seed=seed,
        )
    if include_no_rescheduling:
        results["DHA without re-sched."] = run_case_study(
            workflow,
            "DHA",
            deployment,
            scale=scale,
            capacity_changes=changes,
            enable_rescheduling=False,
            workflow_fraction=fraction,
            label="DHA without re-sched.",
            seed=seed,
        )
    return results
