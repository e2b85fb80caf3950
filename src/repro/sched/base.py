"""Scheduler interface and shared scheduling context.

The orchestration engine is scheduler-agnostic: every pump of its main loop
it offers the scheduler the currently ready-but-unplaced tasks, asks whether
staged tasks may be dispatched (DHA's delay mechanism hooks in here), and
periodically offers the not-yet-dispatched tasks for re-scheduling.  The
scheduler sees the system exclusively through :class:`SchedulingContext` —
the endpoint monitor's mocked real-time view, the two profilers and the data
manager — exactly the observe–predict–decide loop of the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import Config
from repro.core.dag import Task, TaskGraph
from repro.data.manager import DataManager
from repro.faas.types import TaskExecutionRecord
from repro.monitor.endpoint_monitor import EndpointMonitor
from repro.profiling.execution import ExecutionProfiler
from repro.profiling.transfer import TransferProfiler
from repro.sched.vector import EndpointStateVectors, PredictionIndex
from repro.sim.kernel import Clock

__all__ = ["Placement", "Scheduler", "SchedulingContext"]


@dataclass(frozen=True)
class Placement:
    """A scheduling decision: run ``task_id`` on ``endpoint``."""

    task_id: str
    endpoint: str
    #: Estimated finish time used to make the decision (diagnostics only).
    estimated_finish_s: float = 0.0


@dataclass
class SchedulingContext:
    """Everything a scheduler may consult when deciding placements.

    Per task × endpoint predictions live in :attr:`arrays`, the dense
    :class:`~repro.sched.vector.PredictionIndex` DHA and HEFT decide from.
    :meth:`estimated_input_mb`, which fills it, is memoized per task with a
    *generation stamp* derived from the execution profiler's prediction
    version and the endpoint monitor's hardware version, so a profiler
    retrain (or warm-up observation) invalidates an estimate lazily; the
    engine additionally invalidates a task's entries eagerly when its input
    files change, keeping invalidation O(changed).
    """

    graph: TaskGraph
    endpoint_monitor: EndpointMonitor
    execution_profiler: ExecutionProfiler
    transfer_profiler: TransferProfiler
    data_manager: DataManager
    config: Config
    clock: Clock
    #: Relative hardware speed per endpoint (used as a fallback ordering when
    #: the execution profiler has no observations yet).
    speed_factors: Dict[str, float]

    # Memoization state (see class docstring).
    _input_cache: Dict[str, Tuple[float, Tuple[int, int]]] = field(
        init=False, default_factory=dict, repr=False
    )
    #: Predicted execution and staging time of every task × endpoint pair in
    #: dense matrices, created on demand by the schedulers that read them.
    #: See :mod:`repro.sched.vector`.
    arrays: Optional[PredictionIndex] = field(init=False, default=None, repr=False)

    # ------------------------------------------------------------ conveniences
    def endpoint_names(self) -> List[str]:
        return self.endpoint_monitor.endpoint_names()

    def ensure_arrays(self) -> PredictionIndex:
        """The array-backed prediction index, created lazily."""
        if self.arrays is None:
            self.arrays = PredictionIndex(self)
        return self.arrays

    # ------------------------------------------------------------ memoization
    def _prediction_generation(self) -> Tuple[int, int]:
        return (
            getattr(self.execution_profiler, "prediction_version", 0),
            getattr(self.endpoint_monitor, "hardware_version", 0),
        )

    def invalidate_task(self, task_id: str) -> None:
        """Drop cached predictions for one task (a dependency completed)."""
        self._input_cache.pop(task_id, None)
        if self.arrays is not None:
            self.arrays.invalidate_task(task_id)

    def release_task(self, task_id: str) -> None:
        """Evict a *finished* task: drop its cached predictions and recycle
        its matrix row, keeping both layers bounded by the live task set."""
        self.invalidate_task(task_id)
        if self.arrays is not None:
            self.arrays.release_task(task_id)

    def invalidate_predictions(self) -> None:
        """Drop every cached prediction (profiler retrained, hardware changed)."""
        self._input_cache.clear()
        if self.arrays is not None:
            self.arrays.invalidate_all()

    def estimated_input_mb(self, task: Task) -> float:
        """Best estimate of a task's input data volume.

        Uses the actual input files when they are known (dependencies have
        completed); otherwise falls back to the execution profiler's
        predicted output sizes of the task's predecessors.
        """
        generation = self._prediction_generation()
        cached = self._input_cache.get(task.task_id)
        if cached is not None and cached[1] == generation:
            return cached[0]
        if task.input_files:
            total = task.input_size_mb
        else:
            total = 0.0
            for parent in self.graph.predecessors(task.task_id):
                if parent.output_files:
                    total += sum(getattr(f, "size_mb", 0.0) for f in parent.output_files)
                else:
                    hardware = (1.0, 1.0, 1.0)
                    total += self.execution_profiler.predict_output_mb(
                        parent.name, parent.input_size_mb, hardware, default=0.0
                    )
        self._input_cache[task.task_id] = (total, generation)
        return total

    def staging_sources(self, file) -> List[str]:
        """Candidate source replicas for a multi-source staging prediction.

        Mirrors ``DataPlane._pick_source``'s candidate set: replicas at
        online endpoints, falling back to the full (quarantined) set only
        when no online replica is left.  Keeping predictions on the same
        candidates as the transfer scheduler stops placements from being
        costed against a fast replica sitting on a crashed endpoint.
        """
        sources = sorted(file.locations)
        if not sources:
            return sources
        store = getattr(self.data_manager, "store", None)
        if store is None:
            return sources
        online = [s for s in sources if not store.is_offline(s)]
        return online or sources

    def quarantine_generation(self) -> int:
        """Moves whenever :meth:`staging_sources` may answer differently for
        an unchanged replica set (an endpoint crashed or rejoined)."""
        store = getattr(self.data_manager, "store", None)
        return 0 if store is None else store.offline_generation

    def predicted_staging_time(self, task: Task, endpoint: str) -> float:
        """Predicted time to stage the task's missing inputs onto ``endpoint``.

        With the data plane enabled the prediction is *multi-source*: each
        file is costed from its cheapest replica, matching the transfer
        scheduler's source selection (including its quarantine of crashed
        endpoints — see :meth:`staging_sources`).  With the plane disabled it
        reads the primary replica only — exactly the paper's §IV-E behaviour,
        which the ``--no-dataplane`` digest-equivalence guarantee pins.
        :meth:`~repro.sched.vector.PredictionIndex._staging_row` fills the
        staging matrix with the same floats, a row at a time.
        """
        multi_source = self.config.enable_dataplane
        total = 0.0
        for file in task.input_files:
            if file.available_at(endpoint) or file.size_mb <= 0:
                continue
            if multi_source:
                sources = self.staging_sources(file)
                if not sources:
                    continue
                total += min(
                    self.transfer_profiler.predict_transfer_time(src, endpoint, file.size_mb)
                    for src in sources
                )
                continue
            source = file.primary_location
            if source is None:
                continue
            total += self.transfer_profiler.predict_transfer_time(
                source, endpoint, file.size_mb
            )
        if not task.input_files:
            # Inputs not produced yet: approximate with the estimated volume
            # moved from an arbitrary peer (average bandwidth).
            size = self.estimated_input_mb(task)
            if size > 0:
                names = [n for n in self.endpoint_names() if n != endpoint]
                if names:
                    total = self.transfer_profiler.predict_transfer_time(names[0], endpoint, size)
        return total


class Scheduler(ABC):
    """Base class for workflow schedulers."""

    #: Human-readable algorithm name (used in logs and experiment tables).
    name: str = "base"
    #: Whether the engine should delay dispatch until the target endpoint has
    #: idle capacity (True only for DHA's delay mechanism by default).
    uses_delay_mechanism: bool = False
    #: Whether the engine should periodically offer pending tasks back to the
    #: scheduler for re-scheduling.
    supports_rescheduling: bool = False

    def __init__(self) -> None:
        self.context: Optional[SchedulingContext] = None
        #: Tasks assigned per endpoint that have not been dispatched yet
        #: (claims against the mocked free capacity).
        self._claims: Dict[str, int] = {}
        #: The federation's per-endpoint sum of its active tenants' claims
        #: (see :meth:`share_claims`); ``None`` while this tenant is not one.
        self._claim_totals: Optional[Dict[str, int]] = None
        #: Incremental per-endpoint state arrays (DHA's estimated-finish index).
        self._vectors: Optional[EndpointStateVectors] = None
        #: Bumped on every claim change — part of the re-scheduling pass's
        #: nothing-changed fingerprint.
        self._claims_version = 0
        #: Cross-workflow capacity slice (multi-tenant serving): an upper
        #: bound per endpoint on the free capacity this scheduler may treat
        #: as its own this round.  ``None`` (single-workflow) = unbounded.
        self._capacity_slice: Optional[Dict[str, int]] = None
        #: Zero-arg callable returning the current
        #: :class:`~repro.placement.plan.PlacementPlan` (or ``None``).  Wired
        #: by the engine when the placement service is enabled; schedulers
        #: that understand the plan (DHA) keep placements inside the
        #: plan-warm endpoint set while a warm candidate exists, falling back
        #: to the full endpoint set otherwise.  ``None`` (the default, and the
        #: ``--no-placement`` mode) leaves every decision byte-identical to
        #: the pre-placement scheduler.
        self.plan_provider = None

    # ----------------------------------------------------------------- setup
    def initialize(self, context: SchedulingContext) -> None:
        """Bind the scheduler to a workflow run."""
        self.context = context
        # A re-initialize while the federation sums this scheduler's claims
        # (restore, restart) takes the old claims out of that sum first.
        totals = self._claim_totals
        if totals is not None:
            self.share_claims(None)
        self._claims = {name: 0 for name in context.endpoint_names()}
        self._claim_totals = totals
        # Endpoint-state vectors are created lazily by the schedulers that
        # actually consume them (DHA's EFT index); claim mirroring below is
        # a no-op until then.
        self._vectors = None

    def _require_context(self) -> SchedulingContext:
        if self.context is None:
            raise RuntimeError(f"{type(self).__name__} used before initialize()")
        return self.context

    # ------------------------------------------------------------- interface
    def on_workflow_submitted(self, tasks: Sequence[Task]) -> None:
        """Offline pass over the (currently known) DAG.  Optional."""

    def on_tasks_added(self, tasks: Sequence[Task]) -> None:
        """Runtime graph growth.  Optional — this is the *sole* growth hook.

        The engine batches every task added during one pump round (authoring
        runtimes, mid-run ``submit`` calls) into a single call, so an
        incremental implementation (e.g. DHA's ancestors-only priority
        recompute) pays its cost once per round, not once per task.  The
        tasks are already wired into the graph and, when dependency-free,
        already announced via ``TaskReady``.
        """

    @abstractmethod
    def schedule(self, ready_tasks: Sequence[Task]) -> List[Placement]:
        """Place (a subset of) the ready tasks onto endpoints."""

    def should_dispatch(self, task: Task) -> bool:
        """Gate dispatch of a staged task (delay mechanism hook)."""
        return True

    def reschedule(self, pending_tasks: Sequence[Task]) -> List[Placement]:
        """Re-scheduling pass over not-yet-dispatched tasks.  Optional."""
        return []

    def placement_hint(
        self, task: Task, virtual_claims: Optional[Dict[str, int]] = None
    ) -> Optional[str]:
        """Best guess of where ``task`` would be placed right now.

        Side-effect free (no claims are taken).  ``virtual_claims`` lets the
        caller model a batch the way :meth:`schedule` would — capacity its
        own earlier guesses already spoken for.  The data plane's prefetcher
        uses this to pick destinations for ready-soon tasks; ``None`` lets
        the caller fall back to a locality guess.
        """
        return None

    # ----------------------------------------------------------- notifications
    def on_task_dispatched(self, task: Task, endpoint: str) -> None:
        """Engine notification: the task left the client queue."""
        self.release_claim(endpoint)

    def on_task_completed(self, task: Task, record: TaskExecutionRecord) -> None:
        """Engine notification: the task finished (successfully or not)."""

    def on_capacity_changed(self) -> None:
        """Engine notification: endpoint capacity changed (sync happened)."""

    # --------------------------------------------------------------- helpers
    def claim(self, endpoint: str, count: int = 1) -> None:
        self._claims[endpoint] = self._claims.get(endpoint, 0) + count
        self._claims_version += 1
        totals = self._claim_totals
        if totals is not None:
            totals[endpoint] = totals.get(endpoint, 0) + count
        if self._vectors is not None:
            self._vectors.add_claim(endpoint, count)

    def release_claim(self, endpoint: str) -> None:
        """Drop one claim on ``endpoint`` (a re-scheduling move left it)."""
        if self._claims.get(endpoint, 0) > 0:
            self._claims[endpoint] -= 1
            self._claims_version += 1
            if self._claim_totals is not None:
                self._claim_totals[endpoint] -= 1
            if self._vectors is not None:
                self._vectors.add_claim(endpoint, -1)

    def share_claims(self, totals: Optional[Dict[str, int]]) -> None:
        """Keep ``totals`` — the federation's per-endpoint sum over its active
        tenants' schedulers — current with this scheduler's claims.

        The serving layer calls this when the tenant joins its active set
        (the claims held now are added, every later :meth:`claim` /
        :meth:`release_claim` writes through) and with ``None`` when it
        leaves (they are taken out again), so the run loop reads the sum in
        O(endpoints) instead of asking every tenant every round.
        """
        for sign, target in ((-1, self._claim_totals), (1, totals)):
            if target is not None:
                for endpoint, count in self._claims.items():
                    if count:
                        target[endpoint] = target.get(endpoint, 0) + sign * count
        self._claim_totals = totals

    def transfer_claim(self, old: Optional[str], new: str) -> None:
        """Move one undispatched-task claim between endpoints.

        The failure coordinator re-places tasks by publishing ``TaskPlaced``
        directly, outside any scheduling pass; the claim the original
        placement took must follow the task or the old endpoint stays
        claimed forever and the eventual dispatch steals a claim the new
        endpoint never took.  ``old=None`` covers re-placement of a task
        whose dispatch already released its claim (execution-failure retry):
        only the new claim is taken, balancing the next dispatch's release.
        """
        if old is not None:
            self.release_claim(old)
        self.claim(new, 1)

    def claimed(self, endpoint: str) -> int:
        return self._claims.get(endpoint, 0)

    def set_capacity_slice(self, capacity_slice: Optional[Mapping[str, int]]) -> None:
        """Bound the free capacity this scheduler may consume per endpoint.

        The multi-workflow serving layer's arbitration policy hands every
        tenant scheduler a slice of the federation's free capacity each pump
        round; capacity-limited placement (:meth:`unclaimed_free_capacity`,
        which Locality-style scheduling and DHA's re-scheduling read) then
        stays inside the slice.  ``None`` restores the single-workflow
        behaviour (the whole mocked free capacity is available).
        """
        normalized = dict(capacity_slice) if capacity_slice is not None else None
        if normalized != self._capacity_slice:
            self._capacity_slice = normalized
            # The slice is part of what a re-scheduling pass may consume, so
            # an identical pass under a different slice is not a proven no-op.
            self._claims_version += 1

    def capacity_slice_for(self, endpoint: str) -> Optional[int]:
        """The current slice bound for ``endpoint`` (None = unbounded)."""
        if self._capacity_slice is None:
            return None
        return max(0, self._capacity_slice.get(endpoint, 0))

    def unclaimed_free_capacity(self, endpoint: str) -> int:
        """Mocked free workers minus placements not yet dispatched,
        bounded by the serving layer's capacity slice when one is set."""
        context = self._require_context()
        free = context.endpoint_monitor.free_capacity(endpoint)
        free = max(0, free - self.claimed(endpoint))
        bound = self.capacity_slice_for(endpoint)
        return free if bound is None else min(free, bound)

    def _current_plan(self):
        """The live :class:`~repro.placement.plan.PlacementPlan`, or None."""
        provider = self.plan_provider
        if provider is None:
            return None
        return provider()
