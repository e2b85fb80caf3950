"""Declarative scenario specs and the runner that executes them.

A :class:`ScenarioSpec` composes the four axes of an experiment —

* **workload** (:class:`WorkloadSpec`): which DAG generator runs, at what
  scale;
* **topology** (:class:`EndpointSpec` list): which endpoints exist, on which
  Table II cluster class, with how many workers;
* **scheduler**: strategy name plus the DHA mechanism toggles;
* **dynamics** (:class:`~repro.scenarios.dynamics.DynamicsSpec`): what goes
  wrong, and when —

into one reproducible unit.  :func:`run_scenario` builds the simulated
federation, installs the dynamics timeline, executes the workflow and
returns a :class:`ScenarioResult` whose :meth:`~ScenarioResult.to_json`
payload is byte-identical across runs with the same spec and seed (the
property CI's determinism digest gates on): every field is derived from
simulated time, never from wall-clock measurements.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.authoring.api import WorkflowDefinition
from repro.authoring.registry import get_workflow, is_registered, unique_task_types
from repro.authoring.runtime import WorkflowRun
from repro.core.client import UniFaaSClient
from repro.core.dag import TaskState
from repro.engine.events import Event, expand_event
from repro.experiments.environment import EndpointSetup, SimulationEnvironment, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.scenarios.dynamics import DynamicsInjector, DynamicsSpec
from repro.sim.hardware import ClusterSpec, testbed_clusters
from repro.sim.network import NetworkModel
from repro.streaming.spec import StreamingSpec
from repro.workloads.drug_screening import DRUG_SCREENING_TYPES, build_drug_screening_workflow
from repro.workloads.montage import MONTAGE_TYPES, build_montage_workflow
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo, make_task_type
from repro.workloads.synthetic import build_stress_workload

__all__ = [
    "EndpointSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "WorkloadSpec",
    "run_scenario",
]

#: Scheduler names the CLI accepts, mapped to Config strategy names.
SCHEDULER_ALIASES = {
    "dha": "DHA",
    "heft": "HEFT",
    "locality": "LOCALITY",
    "capacity": "CAPACITY",
    "round_robin": "ROUND_ROBIN",
    "roundrobin": "ROUND_ROBIN",
}


@dataclass(frozen=True)
class EndpointSpec:
    """One endpoint of a scenario topology."""

    name: str
    #: Table II cluster class ("taiyi", "qiming", "dept", "lab",
    #: "workstation") whose hardware/speed the endpoint inherits.
    cluster: str = "qiming"
    workers: int = 16
    max_workers: Optional[int] = None
    auto_scale: bool = False
    failure_rate: float = 0.0
    cold_start_penalty_s: float = 0.0
    #: Staging-storage budget of this endpoint in GB (``None`` falls back to
    #: the scenario-wide :attr:`ScenarioSpec.storage_gb`).
    storage_gb: Optional[float] = None

    def to_setup(self) -> EndpointSetup:
        clusters = testbed_clusters()
        if self.cluster not in clusters:
            raise ValueError(
                f"unknown cluster {self.cluster!r}; expected one of {sorted(clusters)}"
            )
        cluster: ClusterSpec = clusters[self.cluster]
        # Scenario runs are latency-focused, not queue-delay-focused: drop
        # the batch-queue delays so small scenarios stay fast and exact.
        cluster = cluster.with_overrides(queue_delay_mean_s=0.0, queue_delay_std_s=0.0)
        return EndpointSetup(
            name=self.name,
            cluster=cluster,
            initial_workers=self.workers,
            max_workers=self.max_workers or max(self.workers, cluster.workers_per_node),
            auto_scale=self.auto_scale,
            failure_rate=self.failure_rate,
            duration_jitter=0.0,
            execution_overhead_s=0.0,
            cold_start_penalty_s=self.cold_start_penalty_s,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Which workflow generator a scenario runs, and how big."""

    #: "montage", "drug_screening", "stress", "layered" or "hot_dataset".
    kind: str
    #: Fraction of the paper-scale workflow (montage / drug_screening).
    scale: float = 0.02
    #: Task count for the synthetic generators (stress / layered / hot_dataset).
    task_count: int = 200
    #: Per-task duration for the synthetic generators.
    duration_s: float = 4.0
    #: Output data per synthetic task (drives staging traffic).
    output_mb: float = 5.0
    #: Layer width of the "layered" DAG generator.
    layer_width: int = 25
    #: Hot-dataset generator: number of shared input files and size of each.
    shared_files: int = 8
    shared_mb: float = 64.0
    #: Inline authored workflow.  When set it overrides ``kind``: the
    #: definition runs through :class:`~repro.authoring.runtime.WorkflowRun`
    #: with ``workflow_params`` as its declaration parameters.  ``kind`` may
    #: also name a *registered* authored workflow (``zoo-*``); the legacy
    #: generator strings keep resolving through the static-builder adapter
    #: below, byte-identically.
    definition: Optional[WorkflowDefinition] = None
    workflow_params: Optional[Dict[str, object]] = None

    def build(self, client: UniFaaSClient) -> WorkloadInfo:
        if self.definition is not None:
            return _start_authored(self.definition, client, self.workflow_params)
        builder = _LEGACY_BUILDERS.get(self.kind)
        if builder is not None:
            return builder(client, self)
        if is_registered(self.kind):
            entry = get_workflow(self.kind)
            return _start_authored(entry.definition, client, entry.params(self))
        raise ValueError(f"unknown workload kind {self.kind!r}")

    def task_types(self) -> List[TaskTypeSpec]:
        """Task types to pre-train the execution profiler with."""
        if self.definition is not None:
            return unique_task_types(
                self.definition.task_types(**(self.workflow_params or {}))
            )
        if self.kind == "montage":
            return list(MONTAGE_TYPES.values())
        if self.kind == "drug_screening":
            return list(DRUG_SCREENING_TYPES.values())
        if self.kind == "stress":
            return [TaskTypeSpec(name=f"stress_{self.duration_s:g}s",
                                 duration_s=self.duration_s, output_mb=self.output_mb)]
        if self.kind == "hot_dataset":
            return list(_hot_dataset_task_types(self))
        if self.kind not in ("layered",) and is_registered(self.kind):
            return get_workflow(self.kind).task_types(self)
        return [_layered_task_type(self)]


def _start_authored(
    definition: WorkflowDefinition, client, params: Optional[Dict[str, object]]
) -> WorkloadInfo:
    """Start an authored workflow on a client or tenant handle."""
    run = WorkflowRun(definition, client, params=dict(params or {}))
    run.start()
    run.info.run = run  # type: ignore[attr-defined] — scenario assertions
    return run.info


def _layered_task_type(workload: WorkloadSpec) -> TaskTypeSpec:
    return TaskTypeSpec(
        name="layer_task", duration_s=workload.duration_s, output_mb=workload.output_mb
    )


def _build_layered_workload(client: UniFaaSClient, workload: WorkloadSpec) -> WorkloadInfo:
    """A layered DAG: each task depends on two tasks of the previous layer.

    The same shape as the scheduling-scale benchmark's — wide enough to keep
    every endpoint busy, deep enough that crashes hit tasks with successors.
    """
    spec = _layered_task_type(workload)
    fn = make_task_type(spec)
    info = WorkloadInfo(name="layered_dag")
    with client:
        previous: List = []
        while info.task_count < workload.task_count:
            layer_size = min(workload.layer_width, workload.task_count - info.task_count)
            layer = []
            for i in range(layer_size):
                if previous:
                    parents = (previous[i % len(previous)], previous[(i + 1) % len(previous)])
                else:
                    parents = ()
                future = fn(*parents)
                info.register(future, spec.name, spec.duration_s, spec.output_mb)
                layer.append(future)
            previous = layer
    return info


def _hot_dataset_task_types(workload: WorkloadSpec) -> List[TaskTypeSpec]:
    return [
        TaskTypeSpec(name="hot_prepare", duration_s=workload.duration_s, output_mb=0.0),
        TaskTypeSpec(
            name="hot_consume", duration_s=workload.duration_s, output_mb=workload.output_mb
        ),
    ]


def _build_hot_dataset_workload(client: UniFaaSClient, workload: WorkloadSpec) -> WorkloadInfo:
    """Many consumers share a hot input dataset.

    A handful of large shared files live on the *last* endpoint of the
    topology (presets put a small "datastore" site there); a layer of
    compute-only *prepare* tasks gates a wide fan of *consume* tasks that
    each read two of the shared files.  While the
    prepare layer executes, every consumer is *ready-soon* — exactly the
    window the data plane's prefetcher pipelines the hot files into, and the
    re-used replicas are what the capacity-bounded store must keep (or
    cheaply re-stage) under eviction pressure.
    """
    from repro.data.remote_file import GlobusFile

    prepare_spec, consume_spec = _hot_dataset_task_types(workload)
    prepare_fn = make_task_type(prepare_spec)
    consume_fn = make_task_type(consume_spec)
    # The dataset lives on the *last* endpoint of the topology — presets put
    # a small "datastore" site there, so compute endpoints must pull the hot
    # files over the WAN (or serve them from prefetched replicas).
    home = client.fabric.endpoint_names()[-1]
    shared = [
        GlobusFile(f"hot-{i:03d}", size_mb=workload.shared_mb, location=home)
        for i in range(max(1, workload.shared_files))
    ]
    info = WorkloadInfo(name="hot_dataset")
    info.total_data_mb += sum(f.size_mb for f in shared)
    with client:
        prepares = []
        for _ in range(max(1, workload.layer_width)):
            future = prepare_fn()
            info.register(future, prepare_spec.name, prepare_spec.duration_s, 0.0)
            prepares.append(future)
        consumers = max(0, workload.task_count - len(prepares))
        for i in range(consumers):
            gate = prepares[i % len(prepares)]
            first = shared[i % len(shared)]
            second = shared[(i + len(shared) // 2) % len(shared)]
            inputs = (first,) if second is first else (first, second)
            future = consume_fn(gate, *inputs)
            info.register(
                future, consume_spec.name, consume_spec.duration_s, workload.output_mb
            )
    return info


#: Adapter keeping the legacy generator strings working alongside the
#: authored-workflow registry: each maps onto its original static builder
#: unchanged, so the existing presets' event digests cannot move.
_LEGACY_BUILDERS = {
    "montage": lambda client, w: build_montage_workflow(client, scale=w.scale),
    "drug_screening": lambda client, w: build_drug_screening_workflow(
        client, scale=w.scale
    ),
    "stress": lambda client, w: build_stress_workload(
        client, w.task_count, w.duration_s, output_mb=w.output_mb
    ),
    "layered": _build_layered_workload,
    "hot_dataset": _build_hot_dataset_workload,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully declarative scenario: workload x topology x scheduler x dynamics."""

    name: str
    description: str
    workload: WorkloadSpec
    topology: Tuple[EndpointSpec, ...]
    scheduler: str = "DHA"
    dynamics: DynamicsSpec = field(default_factory=DynamicsSpec)
    seed: int = 0
    enable_scaling: bool = False
    enable_delay_mechanism: bool = True
    enable_rescheduling: bool = True
    #: Uniform inter-endpoint bandwidth (MB/s) of the scenario network.
    bandwidth_mbps: float = 150.0
    max_task_retries: int = 2
    #: Shorter cadences than the paper defaults so small scenarios exercise
    #: the periodic machinery (sync, rescheduling) within their makespans.
    endpoint_sync_interval_s: float = 15.0
    rescheduling_interval_s: float = 20.0
    #: Pre-train the profilers with ground truth (the paper's warm regime).
    seed_knowledge: bool = True
    #: Route staging through the data-plane subsystem (replica store +
    #: priority transfer scheduling + prefetch).  The CLI's ``--no-dataplane``
    #: switches a run to the paper's FIFO staging path, whose event digests
    #: are unchanged from the pre-data-plane engine.
    enable_dataplane: bool = True
    #: Run the periodic global placement optimizer (capacitated facility
    #: location) and let the scheduler / scaler / data plane steer by its
    #: plan.  The CLI's ``--no-placement`` switches a run to the pre-plan
    #: greedy layers, whose determinism digests are unchanged from the
    #: pre-placement engine.
    enable_placement: bool = True
    #: Scenario-wide staging-storage budget per endpoint, in GB (``None`` =
    #: unbounded; per-endpoint :attr:`EndpointSpec.storage_gb` overrides it).
    storage_gb: Optional[float] = None
    #: Replica-store eviction policy: "lru" or "cost_benefit".
    eviction_policy: str = "lru"
    #: Pipeline ready-soon tasks' staging behind predecessor execution.
    enable_prefetch: bool = True
    #: Network shape: "uniform" (all links at ``bandwidth_mbps``) or "tiered"
    #: (the first half of the topology forms a fast core at
    #: ``bandwidth_mbps``, every link touching the remaining edge endpoints
    #: runs at a fifth of it).
    network_profile: str = "uniform"
    #: Number of concurrent tenant workflows, each an instance of
    #: ``workload`` on the shared federation (1 = the paper's single-workflow
    #: client: one unarbitrated tenant).
    workflows: int = 1
    #: Cross-workflow arbitration policy: "fifo", "fair_share" or "priority".
    arbitration: str = "fair_share"
    #: Arrival stagger between consecutive workflows (simulated seconds);
    #: arrivals are scheduled on the kernel like dynamics timeline events.
    workflow_stagger_s: float = 0.0
    #: Fair-share weights per workflow (padded with 1.0; empty = all equal).
    tenant_weights: Tuple[float, ...] = ()
    #: Periodic-checkpoint cadence (simulated seconds) of the durability
    #: layer; ``None`` disables checkpointing.  Orchestrator-crash recovery
    #: restores from the latest checkpoint that validates.
    checkpoint_interval_s: Optional[float] = None
    #: Open-loop streaming regime.  When set, the scenario stops being a
    #: closed batch: ``workload`` describes one tenant's DAG, tenants arrive
    #: continuously from a seeded Poisson process, pass through bounded
    #: admission, run under per-tenant SLO deadlines, and are retired on
    #: completion (``workflows`` is ignored on this path).
    streaming: Optional[StreamingSpec] = None

    def with_overrides(
        self,
        *,
        scheduler: Optional[str] = None,
        seed: Optional[int] = None,
        dynamics: Optional[DynamicsSpec] = None,
        scale: Optional[float] = None,
        dataplane: Optional[bool] = None,
        placement: Optional[bool] = None,
        workflows: Optional[int] = None,
        arbitration: Optional[str] = None,
        workflow_stagger_s: Optional[float] = None,
        checkpoint_interval_s: Optional[float] = None,
    ) -> "ScenarioSpec":
        """A copy with CLI-level overrides applied."""
        spec = self
        if checkpoint_interval_s is not None:
            spec = dataclasses.replace(spec, checkpoint_interval_s=checkpoint_interval_s)
        if dataplane is not None:
            spec = dataclasses.replace(spec, enable_dataplane=dataplane)
        if placement is not None:
            spec = dataclasses.replace(spec, enable_placement=placement)
        if workflows is not None:
            if workflows < 1:
                raise ValueError("--workflows must be >= 1")
            spec = dataclasses.replace(spec, workflows=workflows)
        if arbitration is not None:
            spec = dataclasses.replace(spec, arbitration=arbitration)
        if workflow_stagger_s is not None:
            spec = dataclasses.replace(spec, workflow_stagger_s=workflow_stagger_s)
        if scheduler is not None:
            canonical = SCHEDULER_ALIASES.get(scheduler.lower())
            if canonical is None:
                raise ValueError(
                    f"unknown scheduler {scheduler!r}; expected one of {sorted(SCHEDULER_ALIASES)}"
                )
            spec = dataclasses.replace(spec, scheduler=canonical)
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
        if dynamics is not None:
            spec = dataclasses.replace(spec, dynamics=dynamics)
        if scale is not None:
            spec = dataclasses.replace(
                spec, workload=dataclasses.replace(spec.workload, scale=scale)
            )
        return spec


@dataclass
class ScenarioResult:
    """Everything a scenario run reports, all derived from simulated time."""

    scenario: str
    scheduler: str
    seed: int
    makespan_s: float
    total_tasks: int
    completed_tasks: int
    failed_tasks: int
    #: Data the staging pipeline actually moved between endpoints (MB).
    staged_mb: float
    #: Execution attempts beyond each task's first (retries + reassignments).
    retries: int
    rescheduled_tasks: int
    mean_utilization_pct: float
    tasks_per_endpoint: Dict[str, int]
    #: Dynamics events that actually fired, in firing order.
    dynamics_fired: List[Dict[str, object]]
    #: SHA-256 over the engine's full event log + the dynamics timeline.
    determinism_digest: str
    #: Simulated makespan per extra diagnostic (endpoint crash count etc.).
    endpoint_crashes: int = 0
    #: Data-plane counters (empty when the subsystem is disabled).
    dataplane: Dict[str, object] = field(default_factory=dict)
    #: Multi-workflow serving report (empty for a single workflow):
    #: arbitration policy, fairness, and per-tenant makespan / wait / digest.
    serving: Dict[str, object] = field(default_factory=dict)
    #: Durability report (empty unless snapshotting / restore / checkpointing
    #: / orchestrator-crash recovery was engaged): cut positions, tail
    #: digests, checkpoints written and per-crash recovery accounting.
    durability: Dict[str, object] = field(default_factory=dict)
    #: Open-loop streaming report (empty on batch runs): admission counters,
    #: steady-state throughput / tail-wait / deadline-miss metrics.
    streaming: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical, byte-stable JSON payload (sorted keys, fixed floats)."""
        payload = {
            "scenario": self.scenario,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "metrics": {
                "makespan_s": round(self.makespan_s, 6),
                "total_tasks": self.total_tasks,
                "completed_tasks": self.completed_tasks,
                "failed_tasks": self.failed_tasks,
                "staged_mb": round(self.staged_mb, 6),
                # The top-level bytes-moved counter (same aggregate as
                # WorkflowSummary.bytes_moved_mb): the unit the placement
                # benchmarks gate on.
                "bytes_moved_mb": round(self.staged_mb, 6),
                "retries": self.retries,
                "rescheduled_tasks": self.rescheduled_tasks,
                "mean_utilization_pct": round(self.mean_utilization_pct, 6),
                "tasks_per_endpoint": {
                    k: self.tasks_per_endpoint[k] for k in sorted(self.tasks_per_endpoint)
                },
                "endpoint_crashes": self.endpoint_crashes,
            },
            "dynamics": {
                "fired": self.dynamics_fired,
                "count": len(self.dynamics_fired),
            },
            "dataplane": {k: self.dataplane[k] for k in sorted(self.dataplane)},
            "determinism_digest": self.determinism_digest,
        }
        if self.serving:
            # Only multi-workflow runs carry the key, so single-workflow
            # artifacts stay byte-identical to earlier releases.
            payload["serving"] = self.serving
        if self.durability:
            # Likewise only durability-engaged runs carry this key.
            payload["durability"] = self.durability
        if self.streaming:
            # And only open-loop streaming runs carry this one.
            payload["streaming"] = self.streaming
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class _EventLogRecorder:
    """Collects every bus event's identity tuple for the determinism digest."""

    def __init__(self) -> None:
        self.entries: List[Tuple] = []

    def __call__(self, event: Event) -> None:
        # A batch event contributes one entry per task transition it carries.
        self.entries.extend(expand_event(event))


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed: Optional[int] = None,
    max_wall_time_s: float = 600.0,
    durability=None,
) -> ScenarioResult:
    """Execute ``spec`` and return its deterministic result record.

    Every run goes through one federation (``WorkflowManager``):
    ``spec.workflows > 1`` runs N instances of the workload concurrently
    under the spec's arbitration policy; 1 is the paper's single-workflow
    client, a lone unarbitrated tenant.

    ``durability`` (a :class:`~repro.durability.runtime.DurabilityOptions`)
    arms snapshot capture, restore-with-verification replay, or periodic
    checkpointing; a spec with :attr:`ScenarioSpec.checkpoint_interval_s` or
    orchestrator-crash dynamics engages the durability driver on its own.
    Runs without any of these keep the classic path — and its artifacts —
    byte-identically.
    """
    seed = spec.seed if seed is None else seed
    crashes = tuple(
        sorted(spec.dynamics.orchestrator, key=lambda c: (c.at_s, c.restart_delay_s))
    )
    engaged = (
        (durability is not None and durability.engaged)
        or bool(crashes)
        or spec.checkpoint_interval_s is not None
    )
    if not engaged:
        result, _ = _run_attempt(spec, seed, max_wall_time_s, None)
        return result
    return _run_durable(spec, seed, max_wall_time_s, durability, crashes)


def _run_attempt(
    spec: ScenarioSpec,
    seed: int,
    max_wall_time_s: float,
    controller_factory,
):
    """One full execution of ``spec`` (the unit crash recovery retries)."""
    if controller_factory is not None:
        # Durability snapshots pin raw task/file/ticket ids, which come from
        # process-global counters: restart them so an in-process replay
        # produces the same ids a fresh process would.
        from repro.durability.runtime import reset_global_id_counters

        reset_global_id_counters()
    env, config = _build_environment(spec, seed)
    if spec.streaming is not None:
        from repro.scenarios.streaming import run_streaming_scenario

        return run_streaming_scenario(
            spec, seed, env, config, max_wall_time_s, controller_factory
        )
    return _run_batch_scenario(spec, seed, env, config, max_wall_time_s, controller_factory)


def _run_durable(
    spec: ScenarioSpec,
    seed: int,
    max_wall_time_s: float,
    options,
    crashes,
) -> ScenarioResult:
    """The durability driver: snapshot / restore / checkpoint / recovery."""
    import shutil
    import tempfile

    from repro.durability.errors import OrchestratorCrashed, SnapshotError
    from repro.durability.runtime import (
        DurabilityController,
        DurabilityOptions,
        load_restore_snapshot,
    )
    from repro.durability.snapshot import latest_valid_snapshot

    options = options or DurabilityOptions()
    if options.snapshot_at is not None and options.restore_from is not None:
        raise SnapshotError(
            "snapshot capture and restore are mutually exclusive in one run"
        )
    restore = (
        load_restore_snapshot(options.restore_from, spec, seed)
        if options.restore_from is not None
        else None
    )
    checkpoint_dir = options.checkpoint_dir
    cleanup_dir = None
    if spec.checkpoint_interval_s is not None and checkpoint_dir is None:
        # Crash recovery needs somewhere durable-for-the-run to read
        # checkpoints back from; without a caller-provided directory the
        # files are transient and removed after the run.
        cleanup_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
        checkpoint_dir = cleanup_dir

    fired = 0
    recovery: List[Dict[str, object]] = []
    skipped: List[str] = []
    try:
        while True:

            def factory(ctx, _restore=restore, _fired=fired):
                return DurabilityController(
                    ctx,
                    snapshot_at=options.snapshot_at,
                    snapshot_path=options.snapshot_path,
                    checkpoint_interval_s=spec.checkpoint_interval_s,
                    checkpoint_dir=checkpoint_dir,
                    restore=_restore,
                    crashes=crashes,
                    crashes_fired=_fired,
                )

            try:
                result, controller = _run_attempt(spec, seed, max_wall_time_s, factory)
                break
            except OrchestratorCrashed as crash:
                fired += 1
                path = snapshot = None
                newly_skipped: List[str] = []
                if checkpoint_dir is not None:
                    path, snapshot, newly_skipped = latest_valid_snapshot(checkpoint_dir)
                skipped.extend(newly_skipped)
                restore = snapshot
                resumed_from = float(snapshot.cut["time_s"]) if snapshot else 0.0
                recovery.append(
                    {
                        "at_s": round(crash.at_s, 6),
                        "restart_delay_s": round(crash.restart_delay_s, 6),
                        "resumed_from_s": round(resumed_from, 6),
                        "lost_progress_s": round(max(0.0, crash.at_s - resumed_from), 6),
                        "downtime_s": round(
                            crash.restart_delay_s + max(0.0, crash.at_s - resumed_from),
                            6,
                        ),
                        "checkpoint": path.name if path is not None else "",
                    }
                )
    finally:
        if cleanup_dir is not None:
            shutil.rmtree(cleanup_dir, ignore_errors=True)

    payload = controller.finish()
    if crashes:
        payload["recovery"] = {
            "attempts": fired + 1,
            "crashes": recovery,
            "checkpoints_skipped": sorted(set(skipped)),
        }
    result.durability = payload
    return result


def _build_environment(spec: ScenarioSpec, seed: int):
    """The simulated federation + config shared by both run paths."""
    setups = [endpoint.to_setup() for endpoint in spec.topology]
    names = [s.name for s in setups]
    if spec.network_profile == "tiered":
        network = NetworkModel.tiered(
            names,
            core_count=max(1, (len(names) + 1) // 2),
            fast_mbps=spec.bandwidth_mbps,
            slow_mbps=spec.bandwidth_mbps / 5.0,
            jitter=0.0,
            seed=seed,
        )
    elif spec.network_profile == "uniform":
        network = NetworkModel.uniform(
            names, bandwidth_mbps=spec.bandwidth_mbps, jitter=0.0, seed=seed
        )
    else:
        raise ValueError(
            f"unknown network profile {spec.network_profile!r}; expected uniform/tiered"
        )
    latency = ServiceLatencyModel()
    env: SimulationEnvironment = build_simulation(
        setups, network=network, latency=latency, seed=seed
    )
    config = env.make_config(
        spec.scheduler,
        enable_delay_mechanism=spec.enable_delay_mechanism,
        enable_rescheduling=spec.enable_rescheduling,
        enable_scaling=spec.enable_scaling,
        enable_dataplane=spec.enable_dataplane,
        # The plan amortises over long-lived tenants; open-loop streaming
        # tenants live and die inside one re-solve cadence, so a streaming
        # federation is built without it.
        enable_placement_plan=spec.enable_placement and spec.streaming is None,
        enable_prefetch=spec.enable_prefetch,
        storage_capacity_gb=spec.storage_gb,
        eviction_policy=spec.eviction_policy,
        storage_gb={
            e.name: e.storage_gb for e in spec.topology if e.storage_gb is not None
        },
        max_task_retries=spec.max_task_retries,
        endpoint_sync_interval_s=spec.endpoint_sync_interval_s,
        rescheduling_interval_s=spec.rescheduling_interval_s,
        checkpoint_interval_s=spec.checkpoint_interval_s,
        random_seed=seed,
    )
    return env, config


def _run_batch_scenario(
    spec: ScenarioSpec,
    seed: int,
    env: SimulationEnvironment,
    config,
    max_wall_time_s: float,
    controller_factory=None,
):
    """``spec.workflows`` instances of the workload through one federation.

    One workflow is the paper's client: namespace ``""``, no arbitration.
    """
    from repro.serving import WorkflowManager

    multi = spec.workflows > 1
    manager = WorkflowManager(
        config,
        env.fabric,
        transfer_backend=env.transfer_backend,
        arbitration=spec.arbitration if multi else None,
    )
    if spec.seed_knowledge:
        env.seed_full_knowledge(manager)
        env.seed_execution_knowledge(manager, spec.workload.task_types())

    recorders: Dict[str, _EventLogRecorder] = {}
    infos: Dict[str, WorkloadInfo] = {}

    def make_builder(wid: str):
        def build(handle) -> None:
            infos[wid] = spec.workload.build(handle)

        return build

    for index in range(spec.workflows):
        wid = f"wf{index}" if multi else ""
        weight = (
            spec.tenant_weights[index] if index < len(spec.tenant_weights) else 1.0
        )
        handle = manager.add_workflow(
            wid,
            owner=f"tenant-{index}" if multi else "",
            weight=weight,
            # Earlier arrivals outrank later ones under strict priority.
            priority=spec.workflows - index,
            arrival_s=index * spec.workflow_stagger_s,
            builder=make_builder(wid),
        )
        recorder = _EventLogRecorder()
        handle.bus.subscribe_all(recorder)
        recorders[wid] = recorder

    timeline = spec.dynamics.compile(
        [e.name for e in spec.topology], env.rng.stream("dynamics")
    )
    injector = DynamicsInjector(env, manager)
    injector.install(timeline)

    controller = None
    if controller_factory is not None:
        # Fixed call-site: the controller's kernel events must be scheduled
        # at the same sequence positions in capture and restore runs — armed
        # after the dynamics timeline, before the run.
        from repro.durability.errors import OrchestratorCrashed
        from repro.durability.runtime import RunContext

        ctx = RunContext(env, spec, seed, manager)
        for handle in manager.workflows():
            ctx.engines[handle.workflow_id] = handle.engine
            ctx.recorders[handle.workflow_id] = recorders[handle.workflow_id]
        controller = controller_factory(ctx)
        controller.install()
        try:
            manager.run(max_wall_time_s=max_wall_time_s)
        except OrchestratorCrashed:
            # The crashed attempt's manager must release its shared-kernel
            # footprint (arrival events, control-bus subscriptions) before
            # the recovery driver builds its successor.
            manager.shutdown()
            raise
    else:
        manager.run(max_wall_time_s=max_wall_time_s)
    serving = manager.summary()

    digest = hashlib.sha256()
    digest.update(repr([e.as_dict() for e in timeline]).encode())
    workflow_payload: Dict[str, object] = {}
    retries = 0
    crashes = sum(
        getattr(env.fabric.endpoint(name), "crash_count", 0)
        for name in env.fabric.endpoint_names()
    )
    tasks_per_endpoint: Dict[str, int] = {}
    for handle in manager.workflows():
        wid = handle.workflow_id
        entries = recorders[wid].entries
        digest.update(wid.encode())
        digest.update(repr(entries).encode())
        wf_digest = hashlib.sha256(repr(entries).encode()).hexdigest()
        summary = serving.workflows[wid]
        for task in handle.graph:
            if task.attempts > 1:
                retries += task.attempts - 1
        for endpoint, count in summary.tasks_per_endpoint.items():
            tasks_per_endpoint[endpoint] = tasks_per_endpoint.get(endpoint, 0) + count
        workflow_payload[wid] = {
            "owner": summary.tenant,
            "weight": round(handle.weight, 6),
            "arrival_s": round(handle.arrival_s, 6),
            "makespan_s": round(summary.makespan_s, 6),
            "wait_mean_s": round(summary.wait_time_mean_s, 6),
            "wait_p95_s": round(summary.wait_time_p95_s, 6),
            "staged_mb": round(summary.transfer_volume_gb * 1024.0, 6),
            "completed_tasks": summary.completed_tasks,
            "failed_tasks": summary.failed_tasks,
            "event_digest": wf_digest,
        }
    if multi:
        # Published multi-workflow artifacts count execution *attempts* (a
        # retried task's failed attempt is a failure) where single-workflow
        # ones count terminal task states; unifying the two moves
        # zoo-mixed's digest, so it waits for a re-baselining PR.
        completed, failed = serving.completed_tasks, serving.failed_tasks
    else:
        graph = manager.workflow("").graph
        completed = graph.state_count(TaskState.COMPLETED)
        failed = graph.state_count(TaskState.FAILED)

    per_wf_summaries = list(serving.workflows.values())
    utilization = (
        sum(s.mean_worker_utilization for s in per_wf_summaries) / len(per_wf_summaries)
        if per_wf_summaries
        else 0.0
    )
    dataplane_stats: Dict[str, object] = {}
    if hasattr(manager.data_manager, "stats_dict"):
        dataplane_stats = manager.data_manager.stats_dict()

    result = ScenarioResult(
        scenario=spec.name,
        scheduler=spec.scheduler,
        seed=seed,
        makespan_s=serving.makespan_s,
        total_tasks=sum(info.task_count for info in infos.values()),
        completed_tasks=completed,
        failed_tasks=failed,
        staged_mb=manager.data_manager.total_transferred_mb,
        retries=retries,
        rescheduled_tasks=sum(s.rescheduled_tasks for s in per_wf_summaries),
        mean_utilization_pct=utilization,
        tasks_per_endpoint=tasks_per_endpoint,
        dynamics_fired=[e.as_dict() for e in injector.fired],
        determinism_digest=digest.hexdigest(),
        endpoint_crashes=crashes,
        dataplane=dataplane_stats,
    )
    if multi:
        # Only multi-workflow runs carry the key, so single-workflow
        # artifacts stay byte-identical to earlier releases.
        result.serving = {
            "policy": serving.policy,
            "workflow_count": spec.workflows,
            "stagger_s": round(spec.workflow_stagger_s, 6),
            "jain_fairness": round(serving.jain_fairness, 6),
            "wait_p95_s": round(serving.wait_time_p95_s, 6),
            "workflows": workflow_payload,
        }
    return result, controller
