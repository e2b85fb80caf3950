"""Scheduler interface and shared scheduling context.

The orchestration engine is scheduler-agnostic: every pump of its main loop
it offers the scheduler the currently ready-but-unplaced tasks, asks how many
staged tasks each endpoint may take (DHA's delay mechanism hooks in here), and
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
from repro.dataplane.plane import DataPlane
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
    data_manager: DataPlane
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
    def invalidate_task(self, task_id: str) -> None:
        """Drop cached predictions for one task (a dependency completed).

        Stamps the task's matrix rows stale in place (``-1``): the next
        :meth:`~repro.sched.vector.PredictionIndex.rows` query refills them.
        """
        self._input_cache.pop(task_id, None)
        arrays = self.arrays
        if arrays is not None:
            row = arrays._rows.get(task_id)
            if row is not None:
                arrays._exec_stamp[row] = -1
                arrays._stag_stamp[row] = -1

    def release_task(self, task_id: str) -> None:
        """Evict a *finished* task: drop its cached predictions and recycle
        its matrix row, keeping both layers bounded by the live task set."""
        self.invalidate_task(task_id)
        if self.arrays is not None:
            self.arrays.release_task(task_id)

    def estimated_input_mb(self, task: Task) -> float:
        """Best estimate of a task's input data volume.

        Uses the actual input files when they are known (dependencies have
        completed); otherwise falls back to the execution profiler's
        predicted output sizes of the task's predecessors.
        """
        generation = (
            self.execution_profiler.prediction_version,
            self.endpoint_monitor.hardware_version,
        )
        cached = self._input_cache.get(task.task_id)
        if cached is not None and cached[1] == generation:
            return cached[0]
        store = task._store  # its input_mb column is rewritten with any input_files change
        if task.input_files:
            total = float(store.input_mb[task._row])
        else:
            total = 0.0
            for parent in task.predecessors:
                if parent.output_files:
                    total += sum(getattr(f, "size_mb", 0.0) for f in parent.output_files)
                else:
                    hardware = (1.0, 1.0, 1.0)
                    total += self.execution_profiler.predict_output_mb(
                        parent.name, float(store.input_mb[parent._row]), hardware, default=0.0
                    )
        self._input_cache[task.task_id] = (total, generation)
        return total

    def file_staging_costs(self, file, endpoints: Sequence[str]) -> List[float]:
        """Predicted seconds to stage ``file`` onto each of ``endpoints``.

        The one per-file staging-cost rule: the cheapest transfer from the
        data plane's :meth:`~repro.dataplane.plane.DataPlane.staging_sources`
        (whose policy decides the candidates), ``0.0`` where the file is
        resident, empty, or has nowhere to come from.
        """
        costs = [0.0] * len(endpoints)
        size = file.size_mb
        sources = self.data_manager.staging_sources(file) if size > 0 else None
        if sources:
            predict = self.transfer_profiler.predict_transfer_time
            locations = file.locations
            for column, name in enumerate(endpoints):
                if name in locations:
                    continue
                best = None
                for source in sources:
                    seconds = predict(source, name, size)
                    if best is None or seconds < best:
                        best = seconds
                costs[column] = best
        return costs

    def estimated_staging_costs(self, task: Task, endpoints: Sequence[str]) -> List[float]:
        """Predicted seconds to stage the inputs of a task whose input files
        do not exist yet onto each of ``endpoints``: its estimated input
        volume, moved from the first other endpoint of the federation (an
        arbitrary peer, so an average link)."""
        costs = [0.0] * len(endpoints)
        size = self.estimated_input_mb(task)
        names = self.endpoint_monitor.endpoint_names() if size > 0 else None
        if names:
            predict = self.transfer_profiler.predict_transfer_time
            first = names[0]
            second = names[1] if len(names) > 1 else None
            for column, name in enumerate(endpoints):
                source = first if first != name else second
                if source is not None:
                    costs[column] = predict(source, name, size)
        return costs

    def predicted_staging_time(self, task: Task, endpoint: str) -> float:
        """Predicted time to stage the task's missing inputs onto ``endpoint``:
        the sum of its files' :meth:`file_staging_costs`, or
        :meth:`estimated_staging_costs` while it has none.
        :meth:`~repro.sched.vector.PredictionIndex._staging_row` fills the
        staging matrix with the same floats, a row at a time.
        """
        if not task.input_files:
            return self.estimated_staging_costs(task, (endpoint,))[0]
        total = 0.0
        for file in task.input_files:
            total += self.file_staging_costs(file, (endpoint,))[0]
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
        #: Incremental per-endpoint state arrays (DHA's estimated-finish index).
        self._vectors: Optional[EndpointStateVectors] = None
        #: Bumped on every capacity-slice change — part of the re-scheduling
        #: pass's nothing-changed fingerprint.
        self._slice_version = 0
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
        # Endpoint-state vectors are created lazily by the schedulers that
        # actually consume them (DHA's EFT index).
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

    def dispatch_allowance(self, endpoint: str) -> Optional[int]:
        """Workers' worth of staged tasks that may leave for ``endpoint`` now
        (the delay mechanism's gate); ``None`` leaves the endpoint ungated.

        The dispatch walk asks once per endpoint per round, at the first
        queue head its budget lets through, and spends the answer as it
        dispatches: each task takes its cores, and a head needing more than
        is left waits.
        """
        return None

    def reschedule(self, pending_tasks: Sequence[Task]) -> List[Placement]:
        """Re-scheduling pass over not-yet-dispatched tasks.  Optional."""
        return []

    def placement_hint(
        self, task: Task, virtual_claims: Optional[Dict[str, int]] = None
    ) -> Optional[str]:
        """Best guess of where ``task`` would be placed right now.

        Side-effect free.  ``virtual_claims`` lets the caller model a batch
        the way :meth:`schedule` would — capacity its own earlier guesses
        already spoken for.  The data plane's prefetcher uses this to pick
        destinations for ready-soon tasks; ``None`` lets the caller fall
        back to a locality guess.
        """
        return None

    # --------------------------------------------------------------- helpers
    def claimed(self, endpoint: str) -> int:
        """Tasks placed on ``endpoint`` but not yet dispatched: the task
        store's count, whoever placed them (this scheduler, an endpoint pin,
        the failure coordinator)."""
        return self._require_context().graph.store.pending_on(endpoint)

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
            self._slice_version += 1

    def capacity_slice_for(self, endpoint: str) -> Optional[int]:
        """The current slice bound for ``endpoint`` (None = unbounded)."""
        if self._capacity_slice is None:
            return None
        return max(0, self._capacity_slice.get(endpoint, 0))

    def unclaimed_free_capacity(self, endpoint: str, placing: int = 0) -> int:
        """Mocked free workers minus placements not yet dispatched (and
        ``placing`` more decided but not yet applied), bounded by the serving
        layer's capacity slice when one is set."""
        context = self._require_context()
        free = context.endpoint_monitor.free_capacity(endpoint)
        free = max(0, free - self.claimed(endpoint) - placing)
        bound = self.capacity_slice_for(endpoint)
        return free if bound is None else min(free, bound)

    def _current_plan(self):
        """The live :class:`~repro.placement.plan.PlacementPlan`, or None."""
        provider = self.plan_provider
        if provider is None:
            return None
        return provider()
