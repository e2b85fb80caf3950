"""Declarative scenario specs and the runner that executes them.

A :class:`ScenarioSpec` composes the four axes of an experiment —

* **workload** (:class:`WorkloadSpec`): which DAG generator runs, at what
  scale;
* **topology** (:class:`EndpointSpec` list): which endpoints exist, on which
  Table II cluster class, with how many workers, wired on which substrate
  (:attr:`ScenarioSpec.substrate`: the scenario default or the paper's §VI
  testbed);
* **scheduler**: strategy name plus the DHA mechanism toggles;
* **dynamics** (:class:`~repro.scenarios.dynamics.DynamicsSpec`): what goes
  wrong, and when —

into one reproducible unit.  :func:`run_scenario` builds the simulated
federation, lets its tenants arrive — a closed cohort of ``workflows``
instances of the workload, or an open-loop stream (``streaming``) through
bounded admission — installs the dynamics timeline, runs the one run loop
and returns a :class:`ScenarioResult` whose :meth:`~ScenarioResult.to_json`
payload is byte-identical across runs with the same spec and seed (the
property CI's determinism digest gates on): every field is derived from
simulated time, never from wall-clock measurements.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.authoring.api import WorkflowDefinition
from repro.authoring.registry import RegisteredWorkflow, authored_entry, get_workflow
from repro.core.client import UniFaaSClient
from repro.core.exceptions import WorkflowError
from repro.durability import (
    DurabilityController,
    DurabilityOptions,
    OrchestratorCrashed,
    SnapshotError,
    latest_valid_snapshot,
    load_restore_snapshot,
    reset_global_id_counters,
)
from repro.experiments.environment import EndpointSetup, SimulationEnvironment, build_simulation
from repro.faas.endpoint import CapacityChange
from repro.faas.types import ServiceLatencyModel
from repro.metrics.collector import MetricsCollector
from repro.scenarios.dynamics import DynamicsInjector, DynamicsSpec
from repro.serving import Federation, WorkflowManager
from repro.sim.hardware import ClusterSpec, testbed_clusters
from repro.sim.network import NetworkModel
from repro.streaming import StreamingService
from repro.streaming.spec import StreamingSpec
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo

__all__ = [
    "EndpointSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "WorkloadSpec",
    "run_scenario",
]

#: The four Table II sites of the paper's testbed (the ``"paper"`` substrate).
PAPER_SITES = ("taiyi", "qiming", "dept", "lab")

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
    #: Capacity changes the endpoint itself applies on schedule (another
    #: user's allocation starting or ending, §VI-B).  Unlike the dynamics
    #: layer's ``churn`` action they publish no event.
    capacity_changes: Tuple[CapacityChange, ...] = ()

    def to_setup(self, substrate: str = "scenario") -> EndpointSetup:
        clusters = testbed_clusters()
        if self.cluster not in clusters:
            raise ValueError(
                f"unknown cluster {self.cluster!r}; expected one of {sorted(clusters)}"
            )
        cluster: ClusterSpec = clusters[self.cluster]
        paper = substrate == "paper"
        if not paper:
            # Scenario runs are latency-focused, not queue-delay-focused: drop
            # the batch-queue delays so small scenarios stay fast and exact.
            cluster = cluster.with_overrides(queue_delay_mean_s=0.0, queue_delay_std_s=0.0)
        return EndpointSetup(
            name=self.name,
            cluster=cluster,
            initial_workers=self.workers,
            max_workers=(
                self.max_workers if paper
                else self.max_workers or max(self.workers, cluster.workers_per_node)
            ),
            auto_scale=self.auto_scale,
            failure_rate=self.failure_rate,
            # §VI's testbed: 2 % duration jitter, the 0.062 s endpoint overhead.
            duration_jitter=0.02 if paper else 0.0,
            execution_overhead_s=0.062 if paper else 0.0,
            cold_start_penalty_s=self.cold_start_penalty_s,
            capacity_changes=list(self.capacity_changes),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Which workflow generator a scenario runs, and how big."""

    #: A name in the workload table (:mod:`repro.authoring.registry`): a
    #: static generator ("montage", "drug_screening", "stress",
    #: "hot_dataset") or an authored workflow ("layered", "zoo-*").
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
    #: with ``workflow_params`` as its declaration parameters.
    definition: Optional[WorkflowDefinition] = None
    workflow_params: Optional[Dict[str, object]] = None

    def build(self, client: UniFaaSClient) -> WorkloadInfo:
        return self._entry().build(client, self)

    def task_types(self) -> List[TaskTypeSpec]:
        """Task types to pre-train the execution profiler with."""
        return self._entry().task_types(self)

    def _entry(self) -> RegisteredWorkflow:
        """The inline ``definition``, else the workload table's ``kind``."""
        if self.definition is not None:
            return authored_entry(
                self.definition, lambda spec: spec.workflow_params or {}
            )
        try:
            return get_workflow(self.kind)
        except WorkflowError:
            raise ValueError(f"unknown workload kind {self.kind!r}") from None


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
    #: Shorter cadences than the paper defaults so small scenarios exercise
    #: the periodic machinery (sync, rescheduling) within their makespans.
    endpoint_sync_interval_s: float = 15.0
    rescheduling_interval_s: float = 20.0
    #: Pre-train the profilers with ground truth (the paper's warm regime).
    seed_knowledge: bool = True
    #: Run the data plane's full policy (storage budgets + priority transfer
    #: scheduling + prefetch).  The CLI's ``--no-dataplane`` switches a run
    #: to its published §IV-E policy, whose event digests are unchanged from
    #: the pre-data-plane engine.
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
    #: Open-loop streaming regime.  When set, the tenants arrive from the
    #: stream instead of as a closed cohort: ``workload`` describes one
    #: tenant's DAG, tenants arrive continuously from a seeded Poisson
    #: process, pass through bounded admission, run under per-tenant SLO
    #: deadlines, and are retired on completion.  The cohort's fields
    #: (``workflows``, ``workflow_stagger_s``, ``tenant_weights``) must then
    #: stay at their defaults.
    streaming: Optional[StreamingSpec] = None
    #: What the federation is wired on besides its topology.  ``"scenario"``:
    #: jitter-free ``network_profile`` links at ``bandwidth_mbps``, default
    #: service latencies, no batch-queue delays, duration jitter or endpoint
    #: overhead, capped workers, fabric batches of 64, 5 s metric samples.
    #: ``"paper"``: the §VI testbed of Tables IV-V and Figs. 9-13 —
    #: ``NetworkModel.testbed`` (jittered 150 / 60 / 25 MB/s links), §VI's
    #: latency model, Table II's queue delays, 2 % duration jitter, 0.062 s
    #: endpoint overhead, uncapped workers, batches of 128, 20 s samples.
    #: Its endpoints are Table II's four sites, and the network fields above
    #: stay at their defaults.
    substrate: str = "scenario"
    #: The endpoint monitor's local mocks (§IV-B).  Off, every scheduling
    #: query re-reads the service's periodically refreshed status instead:
    #: the mocking ablation.
    endpoint_mocking: bool = True

    def __post_init__(self) -> None:
        if self.substrate == "paper":
            strays = [e.name for e in self.topology if e.name not in PAPER_SITES
                      or e.cluster != e.name]
            if strays:
                raise ValueError(
                    f"scenario {self.name!r}: the paper substrate runs Table II's sites "
                    f"{PAPER_SITES}, each endpoint named for its cluster; not {strays}"
                )
            defaults = {f.name: f.default for f in dataclasses.fields(self)}
            if any(getattr(self, n) != defaults[n] for n in ("network_profile", "bandwidth_mbps")):
                raise ValueError(
                    f"scenario {self.name!r}: the paper substrate's network is the "
                    "testbed's, so network_profile / bandwidth_mbps cannot be set"
                )
        if self.streaming is not None and (
            self.workflows != 1 or self.workflow_stagger_s or self.tenant_weights
        ):
            raise ValueError(
                f"scenario {self.name!r}: its tenants arrive from the stream, so "
                "workflows / workflow_stagger_s / tenant_weights (a closed "
                "cohort's arrivals) cannot be set"
            )

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
            if not 0 < scale <= 1.0:
                raise ValueError("--scale must be in (0, 1]")
            spec = dataclasses.replace(
                spec, workload=dataclasses.replace(spec.workload, scale=scale)
            )
        return spec

    def to_payload(self) -> Dict[str, object]:
        """The JSON-native replay recipe a durability snapshot embeds.

        A field walk over the nested spec dataclasses (tuples become lists),
        so every field of every spec rides along without being listed.  The
        one thing that cannot is an inline authored workflow ``definition``
        (a live object graph of closures): such runs must register the
        workflow under a name, and snapshotting them raises.
        """
        if self.workload.definition is not None:
            raise SnapshotError(
                "inline workflow definitions cannot be snapshotted; register the "
                "workflow under a name (authoring registry) and reference it by kind"
            )
        return _payload(self)


def _payload(value):
    if dataclasses.is_dataclass(value):
        return {
            f.name: _payload(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "definition"  # WorkloadSpec's inline workflow, refused above
        }
    if isinstance(value, (tuple, list)):
        return [_payload(item) for item in value]
    if isinstance(value, dict):
        return {key: _payload(item) for key, item in value.items()}
    return value


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
    #: Endpoint crashes during the run, summed over the endpoints.
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
    #: The lone tenant's metrics collector (``None`` unless one workflow ran
    #: as a closed cohort): the time series Figs. 9-13 plot and the
    #: wall-clock scheduler overhead of Table III, which ``to_json`` never
    #: reads.
    metrics: Optional[MetricsCollector] = field(default=None, repr=False, compare=False)

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


class _Tenants:
    """Every tenant of one run, however it arrived.

    The runner registers a closed cohort up front; an open-loop stream
    registers each tenant as admission lets it in.  Either way the tenant's
    DAG is composed by :meth:`build`, its event log is recorded from
    :meth:`admit` on, and its outcome is folded into the run's totals by
    :meth:`absorb` — when it retires (its graph and metrics are released
    right after) or, if it is still registered, at the end of the run.
    """

    def __init__(self, workload: WorkloadSpec) -> None:
        self.workload = workload
        #: workflow id -> event log (the tenant bus writes it), kept to the
        #: end: the digests cover every tenant's full log, retired or not ...
        self.logs: Dict[str, List[Tuple]] = {}
        #: ... -> arrival time, the digests' order ...
        self.arrivals: Dict[str, float] = {}
        #: ... and -> what its builder composed, until it is totalled.
        self.infos: Dict[str, WorkloadInfo] = {}
        self.total_tasks = 0
        self.completed_tasks = 0
        self.failed_tasks = 0
        self.retries = 0
        self.rescheduled_tasks = 0
        self.tasks_per_endpoint: Dict[str, int] = {}
        self.utilization_sum = 0.0
        self.absorbed = 0

    def build(self, handle) -> None:
        self.infos[handle.workflow_id] = self.workload.build(handle)

    def admit(self, handle) -> None:
        wid = handle.workflow_id
        log: List[Tuple] = []
        handle.bus.record_to(log)
        self.logs[wid] = log
        self.arrivals[wid] = handle.arrival_s

    def retire(self, handle) -> None:
        self.absorb(handle, handle.summary())

    def absorb(self, handle, summary) -> None:
        self.total_tasks += self.infos.pop(handle.workflow_id).task_count
        self.completed_tasks += summary.completed_tasks
        self.failed_tasks += summary.failed_tasks
        self.rescheduled_tasks += summary.rescheduled_tasks
        self.utilization_sum += summary.mean_worker_utilization
        self.absorbed += 1
        for endpoint, count in summary.tasks_per_endpoint.items():
            self.tasks_per_endpoint[endpoint] = self.tasks_per_endpoint.get(endpoint, 0) + count
        for task in handle.graph:
            if task.attempts > 1:
                self.retries += task.attempts - 1

    def in_arrival_order(self) -> List[str]:
        """Every tenant's id in the manager's order: arrival time, then id."""
        return sorted(self.logs, key=lambda wid: (self.arrivals[wid], wid))


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed: Optional[int] = None,
    max_wall_time_s: float = 600.0,
    durability: Optional[DurabilityOptions] = None,
) -> ScenarioResult:
    """Execute ``spec`` and return its deterministic result record.

    Every run goes through one federation and its run loop
    (``Federation`` + ``WorkflowManager``):
    ``spec.workflows > 1`` runs N instances of the workload concurrently
    under the spec's arbitration policy; 1 is the paper's single-workflow
    client, a lone unarbitrated tenant.

    ``durability`` arms snapshot capture, restore-with-verification replay,
    or periodic checkpointing; a spec with
    :attr:`ScenarioSpec.checkpoint_interval_s` or orchestrator-crash dynamics
    engages the durability driver on its own.  Runs without any of these
    keep the classic path — and its artifacts — byte-identically.  A
    snapshot capture cannot share a run with a restore, nor with
    orchestrator crashes (whose recovery restores); both raise
    :class:`SnapshotError` before any attempt starts.
    """
    seed = spec.seed if seed is None else seed
    crashes = tuple(
        sorted(spec.dynamics.orchestrator, key=lambda c: (c.at_s, c.restart_delay_s))
    )
    if durability is not None and durability.snapshot_at is not None and (
        durability.restore_from is not None or crashes
    ):
        raise SnapshotError(
            "snapshot capture is mutually exclusive with a restore and with "
            "orchestrator crashes (their recovery restores from a checkpoint)"
        )
    engaged = (
        (durability is not None and durability.engaged)
        or bool(crashes)
        or spec.checkpoint_interval_s is not None
    )
    if not engaged:
        return _run_attempt(spec, seed, max_wall_time_s)
    return _run_durable(spec, seed, max_wall_time_s, durability, crashes)


def _run_attempt(
    spec: ScenarioSpec,
    seed: int,
    max_wall_time_s: float,
    controller: Optional[DurabilityController] = None,
) -> ScenarioResult:
    """One full execution of ``spec`` (the unit crash recovery retries).

    Every run is one federation (``Federation`` + ``WorkflowManager``) and
    its tenants; the spec only says how the tenants arrive.  A closed cohort of
    ``spec.workflows`` instances of the workload is registered up front,
    ``workflow_stagger_s`` apart (one is the paper's single-workflow client:
    namespace ``""``, no arbitration).  With ``spec.streaming`` they arrive
    open-loop instead, through bounded admission, and retire as they
    finish.  Either way one :class:`_Tenants` ledger builds, records and
    totals them, and the result is assembled once.  ``controller``, when
    given, is armed on this attempt's live objects.
    """
    if controller is not None:
        # Durability snapshots pin raw task/file/ticket ids, which come from
        # process-global counters: restart them so an in-process replay
        # produces the same ids a fresh process would.
        reset_global_id_counters()
    env, config = _build_environment(spec, seed)
    cohort = spec.workflows if spec.streaming is None else 0
    federation = Federation(config, env.fabric, transfer_backend=env.transfer_backend)
    manager = WorkflowManager(
        federation, arbitration=spec.arbitration if cohort != 1 else None
    )
    if spec.seed_knowledge:
        env.seed_full_knowledge(federation)
        env.seed_execution_knowledge(federation, spec.workload.task_types())

    tenants = _Tenants(spec.workload)
    for index in range(cohort):
        weight = spec.tenant_weights[index] if index < len(spec.tenant_weights) else 1.0
        tenants.admit(
            manager.add_workflow(
                f"wf{index}" if cohort > 1 else "",
                owner=f"tenant-{index}" if cohort > 1 else "",
                weight=weight,
                # Earlier arrivals outrank later ones under strict priority.
                priority=cohort - index,
                arrival_s=index * spec.workflow_stagger_s,
                builder=tenants.build,
            )
        )

    timeline = spec.dynamics.compile(
        [e.name for e in spec.topology], env.rng.stream("dynamics")
    )
    injector = DynamicsInjector(env, federation)
    injector.install(timeline)

    stream = None
    if spec.streaming is not None:
        stream = StreamingService(
            manager,
            spec.streaming,
            arrivals_rng=env.rng.stream("arrivals"),
            admission_rng=env.rng.stream("admission"),
            builder=tenants.build,
            on_admit=tenants.admit,
            on_retire=tenants.retire,
        )

    if controller is not None:
        # Fixed call-site: the controller's kernel events must be scheduled
        # at the same sequence positions in capture and restore runs — armed
        # after the dynamics timeline, before the stream opens and the run.
        controller.install(env, manager, logs=tenants.logs, streaming=stream)
    if stream is not None:
        stream.install()
    try:
        manager.run(max_wall_time_s=max_wall_time_s)
    except OrchestratorCrashed:
        # The crashed attempt must release its shared-kernel footprint
        # (arrival and abandonment events, control-bus subscriptions)
        # before the recovery driver builds its successor.
        if stream is not None:
            stream.shutdown()
        manager.shutdown()
        raise

    serving = manager.summary()
    for handle in manager.workflows():
        # Tenants still registered at the end: a closed cohort, or a stream
        # cut short.
        tenants.absorb(handle, serving.workflows[handle.workflow_id])
    digest = hashlib.sha256()
    digest.update(repr([e.as_dict() for e in timeline]).encode())
    event_digests: Dict[str, str] = {}
    for wid in tenants.in_arrival_order():
        log = repr(tenants.logs[wid]).encode()
        digest.update(wid.encode())
        digest.update(log)
        if cohort > 1:
            event_digests[wid] = hashlib.sha256(log).hexdigest()
    crashes = sum(
        getattr(env.fabric.endpoint(name), "crash_count", 0)
        for name in env.fabric.endpoint_names()
    )
    result = ScenarioResult(
        scenario=spec.name,
        scheduler=spec.scheduler,
        seed=seed,
        # An open stream has no makespan: this is the simulated span of the
        # run, up to the last event drained.
        makespan_s=serving.makespan_s,
        total_tasks=tenants.total_tasks,
        completed_tasks=tenants.completed_tasks,
        failed_tasks=tenants.failed_tasks,
        staged_mb=federation.data_manager.total_transferred_mb,
        retries=tenants.retries,
        rescheduled_tasks=tenants.rescheduled_tasks,
        mean_utilization_pct=(
            tenants.utilization_sum / tenants.absorbed if tenants.absorbed else 0.0
        ),
        tasks_per_endpoint=dict(sorted(tenants.tasks_per_endpoint.items())),
        dynamics_fired=[e.as_dict() for e in injector.fired],
        determinism_digest=digest.hexdigest(),
        endpoint_crashes=crashes,
        dataplane=federation.data_manager.stats_dict(),
        metrics=manager.workflow("").engine.metrics if cohort == 1 else None,
    )
    if stream is not None:
        result.streaming = stream.payload()
    elif cohort > 1:
        # Only multi-workflow runs carry the key, so single-workflow
        # artifacts stay byte-identical to earlier releases.
        workflows: Dict[str, object] = {}
        for handle in manager.workflows():
            wid = handle.workflow_id
            summary = serving.workflows[wid]
            workflows[wid] = {
                "owner": summary.tenant,
                "weight": round(handle.weight, 6),
                "arrival_s": round(handle.arrival_s, 6),
                "makespan_s": round(summary.makespan_s, 6),
                "wait_mean_s": round(summary.wait_time_mean_s, 6),
                "wait_p95_s": round(summary.wait_time_p95_s, 6),
                "staged_mb": round(summary.transfer_volume_gb * 1024.0, 6),
                "completed_tasks": summary.completed_tasks,
                "failed_tasks": summary.failed_tasks,
                "event_digest": event_digests[wid],
            }
        result.serving = {
            "policy": serving.policy,
            "workflow_count": cohort,
            "stagger_s": round(spec.workflow_stagger_s, 6),
            "jain_fairness": round(serving.jain_fairness, 6),
            "wait_p95_s": round(serving.wait_time_p95_s, 6),
            "workflows": workflows,
        }
    return result


def _run_durable(
    spec: ScenarioSpec,
    seed: int,
    max_wall_time_s: float,
    options: Optional[DurabilityOptions],
    crashes,
) -> ScenarioResult:
    """The durability driver: snapshot / restore / checkpoint / recovery."""
    options = options or DurabilityOptions()
    scenario = spec.to_payload()
    restore = (
        load_restore_snapshot(options.restore_from, scenario, seed)
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
            controller = DurabilityController(
                scenario,
                seed,
                snapshot_at=options.snapshot_at,
                snapshot_path=options.snapshot_path,
                checkpoint_interval_s=spec.checkpoint_interval_s,
                checkpoint_dir=checkpoint_dir,
                restore=restore,
                crashes=crashes,
                crashes_fired=fired,
            )
            try:
                result = _run_attempt(spec, seed, max_wall_time_s, controller)
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
    """The simulated federation + config of one attempt, on the spec's substrate."""
    setups = [endpoint.to_setup(spec.substrate) for endpoint in spec.topology]
    names = [s.name for s in setups]
    paper = spec.substrate == "paper"
    if paper:
        network = NetworkModel.testbed(seed=seed)
    elif spec.substrate != "scenario":
        raise ValueError(f"unknown substrate {spec.substrate!r}; expected scenario/paper")
    elif spec.network_profile == "tiered":
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
    latency = (
        ServiceLatencyModel(
            submit_latency_s=0.004,
            dispatch_latency_s=0.1,
            result_poll_latency_s=0.1,
            endpoint_overhead_s=0.062,
        )
        if paper
        else ServiceLatencyModel()
    )
    env: SimulationEnvironment = build_simulation(
        setups, network=network, latency=latency, seed=seed, batch_size=128 if paper else 64
    )
    config = env.make_config(
        spec.scheduler,
        enable_delay_mechanism=spec.enable_delay_mechanism,
        enable_rescheduling=spec.enable_rescheduling,
        enable_scaling=spec.enable_scaling,
        enable_dataplane=spec.enable_dataplane,
        enable_endpoint_mocking=spec.endpoint_mocking,
        metrics_sample_interval_s=20.0 if paper else 5.0,
        # The plan amortises over long-lived tenants; open-loop streaming
        # tenants live and die inside one re-solve cadence, so a streaming
        # federation is built without it.
        enable_placement_plan=spec.enable_placement and spec.streaming is None,
        storage_capacity_gb=spec.storage_gb,
        eviction_policy=spec.eviction_policy,
        storage_gb={
            e.name: e.storage_gb for e in spec.topology if e.storage_gb is not None
        },
        endpoint_sync_interval_s=spec.endpoint_sync_interval_s,
        rescheduling_interval_s=spec.rescheduling_interval_s,
        checkpoint_interval_s=spec.checkpoint_interval_s,
        random_seed=seed,
    )
    return env, config
