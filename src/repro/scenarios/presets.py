"""Named scenario presets: the paper's regimes plus new chaos regimes.

Each preset is a fully declarative :class:`~repro.scenarios.spec.ScenarioSpec`
the CLI can run by name (``python -m repro run-scenario <name>``).
:func:`paper_spec` builds every run of the paper's §VI case studies (Tables
IV-V, Figs. 9-13) on the ``"paper"`` substrate; ``paper-static-montage`` and
``paper-dynamic-drug`` are two of them at benchmark scale.  The ``chaos-*``
presets go beyond the paper, exercising the dynamics the schedulers are
supposed to survive: endpoint crash/rejoin, stochastic worker churn, cold
starts, wide-area brownouts and status-staleness spikes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faas.endpoint import CapacityChange
from repro.scenarios.dynamics import (
    ChurnProcess,
    CrashRejoinCycle,
    DynamicsSpec,
    OrchestratorCrash,
    TimelineEvent,
)
from repro.scenarios.spec import EndpointSpec, ScenarioSpec, WorkloadSpec
from repro.streaming.spec import StreamingSpec

__all__ = [
    "SCENARIOS",
    "get_scenario",
    "paper_spec",
    "resolve_dynamics",
    "scenario_names",
    "standard_dynamics",
]

#: The default three-site federation the synthetic presets run on: one fast
#: large site, one reference site, one small slow-ish site — enough
#: heterogeneity for DHA/HEFT to make non-trivial choices while staying fast.
_TRIO = (
    EndpointSpec(name="taiyi", cluster="taiyi", workers=24, max_workers=48),
    EndpointSpec(name="qiming", cluster="qiming", workers=16, max_workers=32),
    EndpointSpec(name="lab", cluster="lab", workers=8, max_workers=16),
)

# Tuned so churn lands inside even the shortest preset makespans (~20 s):
# runs start at t=0, so a first event beyond the makespan simply never fires.
_CHURN = ChurnProcess(mean_interval_s=20.0, max_delta_workers=6, start_s=8.0)


def standard_dynamics(kind: str) -> DynamicsSpec:
    """The named dynamics regimes the CLI's ``--dynamics`` flag accepts."""
    if kind == "none":
        return DynamicsSpec()
    if kind == "churn":
        return DynamicsSpec(churn=_CHURN, horizon_s=600.0)
    if kind == "crash":
        return DynamicsSpec(
            crashes=CrashRejoinCycle(
                crash_probability=0.5, earliest_s=40.0, latest_s=150.0, downtime_s=60.0
            ),
            horizon_s=600.0,
        )
    if kind == "chaos":
        return DynamicsSpec(
            churn=_CHURN,
            crashes=CrashRejoinCycle(
                crash_probability=0.4, earliest_s=40.0, latest_s=200.0, downtime_s=45.0
            ),
            horizon_s=600.0,
        )
    raise ValueError(f"unknown dynamics regime {kind!r}; expected none/churn/crash/chaos")


#: §VI-A worker deployments (full scale).
DRUG_STATIC_DEPLOYMENT = {"taiyi": 2000, "qiming": 384, "dept": 48, "lab": 52}
MONTAGE_STATIC_DEPLOYMENT = {"taiyi": 120, "qiming": 240, "dept": 48, "lab": 52}
DRUG_BASELINE_DEPLOYMENT = {"taiyi": 2000}
MONTAGE_BASELINE_DEPLOYMENT = {"qiming": 240}

#: §VI-B initial deployments and capacity-change schedules (full scale):
#: endpoint -> (time s, worker delta) pairs.
DRUG_DYNAMIC_DEPLOYMENT = {"taiyi": 400, "qiming": 600, "dept": 48, "lab": 52}
DRUG_DYNAMIC_CHANGES = {"qiming": [(120.0, +600)], "taiyi": [(540.0, -280)]}
MONTAGE_DYNAMIC_DEPLOYMENT = {"taiyi": 40, "qiming": 240, "dept": 48, "lab": 52}
MONTAGE_DYNAMIC_CHANGES = {"taiyi": [(120.0, +80)], "qiming": [(300.0, -168)]}

#: (workflow, regime) -> deployment, capacity changes and the fraction of
#: the paper's workflow run (drug screening uses 12 001 of its 24 001
#: functions in §VI-B).
_CASE_STUDIES = {
    ("drug_screening", "static"): (DRUG_STATIC_DEPLOYMENT, {}, 1.0),
    ("drug_screening", "baseline"): (DRUG_BASELINE_DEPLOYMENT, {}, 1.0),
    ("drug_screening", "dynamic"): (DRUG_DYNAMIC_DEPLOYMENT, DRUG_DYNAMIC_CHANGES, 0.5),
    ("montage", "static"): (MONTAGE_STATIC_DEPLOYMENT, {}, 1.0),
    ("montage", "baseline"): (MONTAGE_BASELINE_DEPLOYMENT, {}, 1.0),
    ("montage", "dynamic"): (MONTAGE_DYNAMIC_DEPLOYMENT, MONTAGE_DYNAMIC_CHANGES, 1.0),
}
_REGIMES = {
    "static": "static resource capacity (Table IV / Figs. 9-11)",
    "baseline": "the single-cluster baseline (Table IV)",
    "dynamic": "mid-run capacity changes (Table V / Figs. 12-13)",
}


def paper_spec(
    workflow: str, regime: str = "static", scheduler: str = "DHA", *,
    scale: float = 0.05, seed: int = 0,
) -> ScenarioSpec:
    """One run of the paper's §VI case studies, on the ``"paper"`` substrate.

    ``workflow`` is "drug_screening" or "montage"; ``regime`` is "static",
    "baseline" or "dynamic".  ``scale`` shrinks the workflow, the worker
    deployment and the capacity changes by the same ratio, preserving the
    task-per-worker pressure.  The published system's pins hold (no data
    plane, no placement plan, 30 s cadences), and only DHA / HEFT start
    with full profiler knowledge (§VI-A).  Ablations are field flips:
    ``enable_rescheduling``, ``enable_delay_mechanism``, ``endpoint_mocking``.
    """
    try:
        deployment, changes, fraction = _CASE_STUDIES[workflow, regime]
    except KeyError:
        raise ValueError(
            f"unknown case study {workflow!r} / {regime!r}; expected drug_screening or "
            "montage, and static, baseline or dynamic"
        ) from None
    topology = tuple(
        EndpointSpec(
            name=site,
            cluster=site,
            workers=max(1, int(round(count * scale))),
            capacity_changes=tuple(
                CapacityChange(at, int(round(delta * scale)) or (1 if delta > 0 else -1))
                for at, delta in changes.get(site, ())
            ),
        )
        for site, count in deployment.items()
    )
    short = "drug" if workflow == "drug_screening" else workflow
    return ScenarioSpec(
        name=f"paper-{regime}-{short}",
        description=f"{workflow} on the paper's four-site testbed, {_REGIMES[regime]}",
        workload=WorkloadSpec(kind=workflow),
        topology=topology,
        scheduler=scheduler,
        seed=seed,
        endpoint_sync_interval_s=30.0,
        rescheduling_interval_s=30.0,
        seed_knowledge=scheduler.upper() in ("DHA", "HEFT"),
        enable_dataplane=False,
        enable_placement=False,
        substrate="paper",
    ).with_overrides(scale=scale * fraction)


def _build_registry() -> Dict[str, ScenarioSpec]:
    presets: List[ScenarioSpec] = [
        # ------------------------------------------------- paper regimes
        # Two of the Table IV-V runs, at the benchmarks' default scales.
        paper_spec("montage", "static", scale=0.05),
        paper_spec("drug_screening", "dynamic", scale=0.08),
        ScenarioSpec(
            name="paper-elastic-stress",
            description="Stress tasks with elastic scale-out enabled on the scenario "
                        "substrate (Fig. 7's mechanism, not its testbed)",
            workload=WorkloadSpec(kind="stress", task_count=240, duration_s=6.0, output_mb=0.0),
            topology=(
                EndpointSpec(name="taiyi", cluster="taiyi", workers=4, max_workers=48,
                             auto_scale=True),
                EndpointSpec(name="qiming", cluster="qiming", workers=4, max_workers=32,
                             auto_scale=True),
            ),
            scheduler="DHA",
            enable_scaling=True,
        ),
        # -------------------------------------------------- chaos regimes
        ScenarioSpec(
            name="chaos-churn-dha",
            description="Layered DAG under seeded-stochastic worker churn, DHA scheduler",
            workload=WorkloadSpec(kind="layered", task_count=300, duration_s=4.0,
                                  output_mb=5.0, layer_width=30),
            topology=_TRIO,
            scheduler="DHA",
            dynamics=standard_dynamics("churn"),
        ),
        ScenarioSpec(
            name="chaos-crash-rejoin",
            description="Scripted mid-run endpoint crash, cold rejoin after 60 s of downtime",
            workload=WorkloadSpec(kind="layered", task_count=300, duration_s=4.0,
                                  output_mb=5.0, layer_width=30),
            topology=(
                EndpointSpec(name="taiyi", cluster="taiyi", workers=24, max_workers=48,
                             cold_start_penalty_s=2.0),
                EndpointSpec(name="qiming", cluster="qiming", workers=16, max_workers=32),
                EndpointSpec(name="lab", cluster="lab", workers=8, max_workers=16),
            ),
            scheduler="DHA",
            dynamics=DynamicsSpec(
                scripted=(
                    TimelineEvent(at_s=45.0, action="crash", endpoint="taiyi"),
                    TimelineEvent(at_s=105.0, action="rejoin", endpoint="taiyi", value=24.0),
                ),
            ),
        ),
        ScenarioSpec(
            name="chaos-network-brownout",
            description="Staging-heavy Montage through a 120 s wide-area bandwidth brownout",
            workload=WorkloadSpec(kind="montage", scale=0.008),
            topology=(
                EndpointSpec(name="taiyi", cluster="taiyi", workers=12),
                EndpointSpec(name="qiming", cluster="qiming", workers=16),
                EndpointSpec(name="lab", cluster="lab", workers=8),
            ),
            scheduler="DHA",
            bandwidth_mbps=80.0,
            dynamics=DynamicsSpec(
                scripted=(
                    TimelineEvent(at_s=30.0, action="net_degrade", value=0.25,
                                  duration_s=120.0),
                ),
            ),
        ),
        ScenarioSpec(
            name="chaos-stale-status",
            description="Worker churn while the service's status cache goes stale (x8 spike)",
            workload=WorkloadSpec(kind="layered", task_count=250, duration_s=4.0,
                                  output_mb=2.0, layer_width=25),
            topology=_TRIO,
            scheduler="DHA",
            dynamics=DynamicsSpec(
                scripted=(
                    TimelineEvent(at_s=20.0, action="staleness", value=480.0,
                                  duration_s=240.0),
                ),
                churn=_CHURN,
                horizon_s=400.0,
            ),
        ),
        ScenarioSpec(
            name="chaos-coldstart-churn",
            description="Cold-start penalties on every endpoint plus stochastic churn",
            workload=WorkloadSpec(kind="layered", task_count=250, duration_s=3.0,
                                  output_mb=2.0, layer_width=25),
            topology=(
                EndpointSpec(name="taiyi", cluster="taiyi", workers=24, max_workers=48,
                             cold_start_penalty_s=1.5),
                EndpointSpec(name="qiming", cluster="qiming", workers=16, max_workers=32,
                             cold_start_penalty_s=1.5),
                EndpointSpec(name="lab", cluster="lab", workers=8, max_workers=16,
                             cold_start_penalty_s=1.5),
            ),
            scheduler="DHA",
            dynamics=DynamicsSpec(
                scripted=(
                    TimelineEvent(at_s=10.0, action="cold_window", endpoint="taiyi",
                                  value=1.5, duration_s=60.0),
                ),
                churn=_CHURN,
                horizon_s=400.0,
            ),
        ),
        # ----------------------------------------------- data-plane regimes
        ScenarioSpec(
            name="storage-pressure",
            description="Data-heavy layered DAG under tight storage budgets, LRU eviction "
                        "and worker churn",
            workload=WorkloadSpec(kind="layered", task_count=180, duration_s=3.0,
                                  output_mb=48.0, layer_width=30),
            topology=(
                # Every layer (30 tasks) overflows the biggest endpoint, so
                # placement spreads, outputs cross the WAN and the budgets
                # below actually bite.
                EndpointSpec(name="taiyi", cluster="taiyi", workers=12, max_workers=24,
                             storage_gb=1.2),
                EndpointSpec(name="qiming", cluster="qiming", workers=10, max_workers=20,
                             storage_gb=0.9),
                EndpointSpec(name="lab", cluster="lab", workers=8, max_workers=16,
                             storage_gb=0.6),
            ),
            scheduler="DHA",
            bandwidth_mbps=80.0,
            dynamics=DynamicsSpec(churn=_CHURN, horizon_s=400.0),
        ),
        ScenarioSpec(
            name="hot-dataset",
            description="Shared hot dataset on a weak datastore site, fanned out over a "
                        "tiered WAN: prefetch + cost/benefit eviction under a "
                        "crash/rejoin cycle",
            workload=WorkloadSpec(kind="hot_dataset", task_count=160, duration_s=3.0,
                                  output_mb=8.0, layer_width=16,
                                  shared_files=6, shared_mb=96.0),
            topology=(
                # Fast core of compute sites; the hot files live on the slow
                # "datastore" edge site (the hot_dataset generator places the
                # shared dataset on the last endpoint), so compute must pull
                # them over the WAN — or serve them from prefetched replicas.
                EndpointSpec(name="taiyi", cluster="taiyi", workers=18, max_workers=36,
                             storage_gb=1.0),
                EndpointSpec(name="qiming", cluster="qiming", workers=12, max_workers=24,
                             storage_gb=0.75),
                EndpointSpec(name="datastore", cluster="lab", workers=4, max_workers=8,
                             storage_gb=2.0),
            ),
            scheduler="DHA",
            bandwidth_mbps=100.0,
            network_profile="tiered",
            eviction_policy="cost_benefit",
            dynamics=DynamicsSpec(
                scripted=(
                    TimelineEvent(at_s=40.0, action="crash", endpoint="qiming"),
                    TimelineEvent(at_s=100.0, action="rejoin", endpoint="qiming", value=12.0),
                ),
            ),
        ),
        # ------------------------------------------------ serving regimes
        ScenarioSpec(
            name="multi-tenant",
            description="Four tenants' layered DAGs share the trio federation: "
                        "fair-share arbitration (one heavyweight owner), arrivals "
                        "staggered through the dynamics-style kernel timeline",
            workload=WorkloadSpec(kind="layered", task_count=80, duration_s=3.0,
                                  output_mb=2.0, layer_width=16),
            topology=_TRIO,
            scheduler="DHA",
            workflows=4,
            arbitration="fair_share",
            workflow_stagger_s=10.0,
            tenant_weights=(2.0, 1.0, 1.0, 1.0),
        ),
        ScenarioSpec(
            name="tenant-storm",
            description="Eight tenants slam a two-site federation under stochastic "
                        "worker churn; strict-priority arbitration drains the "
                        "earliest (highest-priority) owners first",
            workload=WorkloadSpec(kind="stress", task_count=60, duration_s=3.0,
                                  output_mb=1.0),
            topology=(
                EndpointSpec(name="site_a", cluster="qiming", workers=12, max_workers=24),
                EndpointSpec(name="site_b", cluster="lab", workers=8, max_workers=16),
            ),
            scheduler="DHA",
            workflows=8,
            arbitration="priority",
            workflow_stagger_s=5.0,
            dynamics=standard_dynamics("churn"),
        ),
        ScenarioSpec(
            name="orch-crash-storm",
            description="The orchestrator itself dies mid-storm: three tenants "
                        "under worker churn, periodic 10 s checkpoints, a full "
                        "teardown at t=25 s and recovery from the latest valid "
                        "snapshot after 10 s of downtime",
            workload=WorkloadSpec(kind="layered", task_count=90, duration_s=3.0,
                                  output_mb=2.0, layer_width=18),
            topology=_TRIO,
            scheduler="DHA",
            workflows=3,
            arbitration="fair_share",
            workflow_stagger_s=8.0,
            checkpoint_interval_s=10.0,
            dynamics=DynamicsSpec(
                churn=_CHURN,
                orchestrator=(OrchestratorCrash(at_s=25.0, restart_delay_s=10.0),),
                horizon_s=400.0,
            ),
        ),
        # ---------------------------------------------- streaming regimes
        ScenarioSpec(
            name="stream-steady",
            description="Open-loop serving at a sustainable rate: Poisson tenant "
                        "arrivals through bounded admission, EDF deadlines, "
                        "retirement keeping live state O(active tenants)",
            workload=WorkloadSpec(kind="stress", task_count=8, duration_s=2.0,
                                  output_mb=1.0),
            topology=_TRIO,
            scheduler="DHA",
            arbitration="edf",
            streaming=StreamingSpec(
                mean_interarrival_s=6.0,
                max_arrivals=24,
                queue_limit=12,
                max_active=8,
                slo_s=240.0,
                patience_s=150.0,
                window_s=60.0,
            ),
        ),
        ScenarioSpec(
            name="stream-overload",
            description="Arrivals outpace a small two-site federation: the "
                        "admission queue saturates (rejections + abandonment) "
                        "and mixed SLOs give EDF its edge over FIFO",
            workload=WorkloadSpec(kind="stress", task_count=16, duration_s=3.0,
                                  output_mb=0.0),
            topology=(
                EndpointSpec(name="site_a", cluster="qiming", workers=8, max_workers=16),
                EndpointSpec(name="site_b", cluster="lab", workers=4, max_workers=8),
            ),
            scheduler="DHA",
            arbitration="edf",
            streaming=StreamingSpec(
                mean_interarrival_s=1.5,
                max_arrivals=80,
                queue_limit=8,
                max_active=10,
                slo_choices=(40.0, 80.0, 480.0),
                patience_s=90.0,
                window_s=60.0,
            ),
        ),
        # ------------------------------------------------ authoring zoo
        ScenarioSpec(
            name="zoo-conditional",
            description="Authored conditional branches: one ensure holds (its "
                        "fallback is skipped), one is violated (its recovery "
                        "branch materializes at runtime)",
            workload=WorkloadSpec(kind="zoo-conditional", duration_s=3.0,
                                  output_mb=4.0),
            topology=_TRIO,
            scheduler="DHA",
        ),
        ScenarioSpec(
            name="zoo-convergence",
            description="Authored iterate-until-metric loop with a bounded trip "
                        "count; trips grow the graph mid-run",
            workload=WorkloadSpec(kind="zoo-convergence", duration_s=3.0,
                                  output_mb=4.0),
            topology=_TRIO,
            scheduler="DHA",
        ),
        ScenarioSpec(
            name="zoo-array",
            description="Authored 12k-wide array fan-out expanding lazily in "
                        "batches through the columnar store, then reducing",
            workload=WorkloadSpec(kind="zoo-array", task_count=12000,
                                  duration_s=0.05, output_mb=2.0),
            topology=_TRIO,
            scheduler="DHA",
        ),
        ScenarioSpec(
            name="zoo-mixed",
            description="Two tenants of the full zoo — conditional branch, "
                        "convergence loop, poison-failure recovery edge and a "
                        "10k array fan-out — under worker churn with fair-share "
                        "arbitration",
            workload=WorkloadSpec(kind="zoo-mixed", task_count=10000,
                                  duration_s=0.05),
            topology=_TRIO,
            scheduler="DHA",
            workflows=2,
            arbitration="fair_share",
            workflow_stagger_s=10.0,
            dynamics=standard_dynamics("churn"),
        ),
        # --------------------------------------------------- CI workhorse
        ScenarioSpec(
            name="ci-smoke",
            description="Small, fast scenario for the CI matrix (seconds, not minutes)",
            workload=WorkloadSpec(kind="layered", task_count=120, duration_s=2.0,
                                  output_mb=1.0, layer_width=20),
            topology=(
                EndpointSpec(name="site_a", cluster="qiming", workers=12, max_workers=24),
                EndpointSpec(name="site_b", cluster="lab", workers=8, max_workers=16),
            ),
            scheduler="DHA",
        ),
    ]
    registry = {}
    for preset in presets:
        if preset.name in registry:
            raise ValueError(f"duplicate scenario preset {preset.name!r}")
        registry[preset.name] = preset
    return registry


SCENARIOS: Dict[str, ScenarioSpec] = _build_registry()


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


def resolve_dynamics(kind: Optional[str], preset: ScenarioSpec) -> ScenarioSpec:
    """Apply a ``--dynamics`` override (None keeps the preset's own)."""
    if kind is None:
        return preset
    return preset.with_overrides(dynamics=standard_dynamics(kind))
