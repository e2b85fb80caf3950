"""The event-driven orchestration engine (§IV, Fig. 1).

:class:`ExecutionEngine` composes the five system components of the paper —
DAG generator, monitors, profilers, scheduler and data manager — around a
deterministic :class:`~repro.engine.bus.EventBus` and four focused
coordinators:

* :class:`~repro.engine.placement.PlacementCoordinator` — ready tasks in,
  :class:`TaskPlaced` events out (the scheduler's decide step);
* :class:`~repro.engine.staging.StagingCoordinator` — placed tasks through
  data staging (:class:`StagingDone`);
* :class:`~repro.engine.dispatch.DispatchCoordinator` — delay-mechanism
  gating and fabric submission (:class:`TasksDispatched`);
* :class:`~repro.engine.failure.FailureCoordinator` — the retry / reassign /
  fail ladder of §IV-G;

plus the :class:`~repro.engine.periodic.PeriodicCoordinator` for everything
on a cadence.  The monitors and the metrics collector observe a dispatch
and a completion by direct call, in one fixed order, at the one
place each happens (:meth:`~repro.engine.dispatch.DispatchCoordinator.dispatch`,
:meth:`ExecutionEngine._handle_completions`); the bus then announces the
round's batch.

An engine is strictly *per-workflow* state.  Everything shared — fabric,
clock, monitors, profilers, data manager, placement service — belongs to the
:class:`~repro.serving.federation.Federation` the engine is built on, and
joins that federation's list of live engines as it is built; the run loop
(:class:`~repro.serving.manager.WorkflowManager`) constructs it and drives
it, and the single-workflow :class:`~repro.core.client.UniFaaSClient` is a
one-tenant federation.  The engine is deliberately single-threaded and runs
identically on the discrete-event simulation substrate (experiments) and on
real thread-pool endpoints (examples).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.core.dag import READY_CODE, Task, TaskGraph, files_size_mb
from repro.core.functions import FederatedFunction
from repro.core.futures import UniFuture
from repro.data.remote_file import GlobusFile, RemoteFile, RsyncFile
from repro.dataplane import Prefetcher
from repro.engine.bus import EventBus
from repro.engine.dispatch import DispatchCoordinator
from repro.engine.events import (
    CapacityChanged,
    EndpointCrashed,
    EndpointRejoined,
    TaskCompleted,
    TaskFailed,
    TaskReady,
    TasksCompleted,
    TasksReady,
    WorkerChurn,
)
from repro.engine.failure import FailureCoordinator
from repro.engine.periodic import PeriodicCoordinator
from repro.engine.placement import PlacementCoordinator
from repro.engine.staging import StagingCoordinator
from repro.engine.state import TaskIndex
from repro.faas.types import TaskExecutionRecord
from repro.metrics.collector import MetricsCollector
from repro.sched import create_scheduler
from repro.sched.base import Scheduler, SchedulingContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.federation import Federation

__all__ = ["ENDPOINT_HINT_KWARG", "MAX_RETRIES_KWARG", "ExecutionEngine"]

#: Reserved keyword argument that pins a task to a specific endpoint,
#: bypassing the scheduler (used by the elasticity experiments).
ENDPOINT_HINT_KWARG = "unifaas_endpoint"

#: Reserved keyword argument that overrides the §IV-G retry budget for one
#: task (the authoring API's ``@job(retries=...)``).
MAX_RETRIES_KWARG = "unifaas_max_retries"


class ExecutionEngine:
    """One workflow's event-driven execution state inside a federation."""

    def __init__(
        self,
        federation: "Federation",
        *,
        scheduler: Optional[Scheduler] = None,
        metrics: Optional[MetricsCollector] = None,
        namespace: str = "",
    ) -> None:
        # The shared substrate, by reference: one of each, federation-wide.
        self.config = config = federation.config
        self.fabric = federation.fabric
        self.clock = federation.clock
        self.task_monitor = federation.task_monitor
        self.endpoint_monitor = federation.endpoint_monitor
        self.execution_profiler = federation.execution_profiler
        self.transfer_profiler = federation.transfer_profiler
        self.data_manager = federation.data_manager
        #: The federation's placement service (``None`` = the greedy layers
        #: run unsteered).  The service hands every greedy layer the same
        #: immutable plan: the scheduler keeps placements inside the warm
        #: set, the elastic scaler anchors its split on the plan worker
        #: targets, and the data plane prefers plan replica roots as
        #: transfer sources.
        self.plan_service = federation.plan_service

        # Per-workflow state.
        self.graph = TaskGraph()
        self.bus = EventBus()
        self.index = TaskIndex()
        #: Workflow namespace prefixing this engine's task ids; "" (the
        #: single-workflow client) keeps the process-global task counter.
        self.namespace = namespace
        self._task_seq = 0

        if scheduler is not None:
            self.scheduler = scheduler
        else:
            kwargs = {}
            if config.strategy == "DHA":
                kwargs = dict(
                    enable_delay_mechanism=config.enable_delay_mechanism,
                    enable_rescheduling=config.enable_rescheduling,
                )
            self.scheduler = create_scheduler(config.strategy, **kwargs)
        self.metrics = metrics or MetricsCollector(config.metrics_sample_interval_s)
        if self.plan_service is not None:
            self.scheduler.plan_provider = self.plan_service.current_plan

        # Engine state.
        #: Built by :meth:`start`; ``None`` until the workflow has started.
        self.context: Optional[SchedulingContext] = None
        #: In the run loop's active set (started, unfinished, unpaused).
        self.active = False
        #: Tasks submitted since the last pump round, handed to the scheduler
        #: in one ``on_tasks_added`` batch (the sole graph-growth hook) so
        #: DHA's incremental ancestors-only recompute runs once per round.
        self._pending_added: List[Task] = []
        #: Workflow-growth sources (authoring runtimes).  Drained at the top
        #: of every pump round — a deterministic point outside any bus
        #: cascade.
        self._growth_hooks: List[Callable[[], None]] = []
        #: Outstanding consumers per task id — the data plane's output
        #: lifecycle: when the count hits zero the producer's outputs are
        #: *expendable* (their last replica may be evicted).  Maintained for
        #: dynamic DAGs too: growing the workflow re-raises the count before
        #: the new consumer runs.
        self._consumer_counts: Dict[str, int] = {}

        # Endpoint dynamics (crash / rejoin / churn) reach this bus after the
        # federation re-synchronised the shared monitor, re-planned and
        # quarantined (:meth:`Federation.react`); this workflow reacts at
        # once instead of waiting for its cadences.
        for dynamics_type in (EndpointCrashed, EndpointRejoined, WorkerChurn):
            self.bus.subscribe(dynamics_type, self._on_endpoint_dynamics)

        # Coordinators (their constructors subscribe to the bus).
        self.placement = PlacementCoordinator(self)
        self.staging = StagingCoordinator(self)
        self.dispatch = DispatchCoordinator(self)
        self.failure = FailureCoordinator(self)
        self.periodic = PeriodicCoordinator(self)
        self.bus.subscribe(TaskReady, self._on_task_ready)

        # Data-plane wiring: pin lifecycle and prefetch guesses on terminal
        # failure (which the metrics count) and the prefetch pipeline (a
        # successful completion releases its pins and advances the
        # prefetcher in _handle_completions; the staging coordinator tells
        # it about placements).
        plane = self.data_manager
        self.bus.subscribe(TaskFailed, self._on_task_failed)
        self.prefetcher: Optional[Prefetcher] = None
        if config.enable_prefetch and not plane.published:
            self.prefetcher = Prefetcher(
                plane,
                self.graph,
                placement_hint=lambda task, claims=None: self.scheduler.placement_hint(
                    task, claims
                ),
                endpoint_names=lambda: self.fabric.endpoint_names(),
                plan_provider=(
                    self.plan_service.current_plan
                    if self.plan_service is not None
                    else None
                ),
            )
        # Built: one of the federation's live engines until it is retired.
        federation.engines.append(self)

    # ------------------------------------------------------------- submission
    def submit(self, fn: FederatedFunction, args: tuple, kwargs: Dict[str, Any]) -> UniFuture:
        """Register one invocation of ``fn`` and return its future."""
        kwargs = dict(kwargs)
        endpoint_hint = kwargs.pop(ENDPOINT_HINT_KWARG, None)
        max_retries = kwargs.pop(MAX_RETRIES_KWARG, None)

        dependencies: Set[str] = set()
        input_files: List[RemoteFile] = []
        for value in list(args) + list(kwargs.values()):
            if isinstance(value, UniFuture) and value.task_id is not None:
                dependencies.add(value.task_id)
            elif isinstance(value, RemoteFile):
                input_files.append(value)

        if self.namespace:
            # Workflow-namespaced ids: deterministic per workflow regardless
            # of how tenant submissions interleave in the process, and unique
            # across the federation so the shared replica store's pins and
            # per-ticket accounting never alias between tenants.
            task = Task(
                function=fn,
                args=args,
                kwargs=kwargs,
                dependencies=dependencies,
                task_id=f"{self.namespace}/task-{self._task_seq:08d}",
            )
            self._task_seq += 1
        else:
            task = Task(function=fn, args=args, kwargs=kwargs, dependencies=dependencies)
        task.input_files = input_files
        if max_retries is not None:
            task.max_retries = int(max_retries)
        now = self.clock.now
        self.graph.add_task(
            task, now=now, endpoint=None if endpoint_hint is None else str(endpoint_hint)
        )
        for dep in dependencies:
            self._consumer_counts[dep] = self._consumer_counts.get(dep, 0) + 1
        # Dynamic DAG: a new consumer re-protects outputs the lifecycle hook
        # may already have marked expendable.
        for parent in task.predecessors:
            for file in parent.output_files:
                self.data_manager.store.reclaim(file)

        ready = self.graph.store.state[task._row] == READY_CODE
        if ready:
            self.bus.publish(TaskReady(time=now, task=task, task_id=task.task_id, name=task.name))
        if self.context is not None:
            # Deferred: the scheduler sees every addition of this pump round
            # in one on_tasks_added batch (flushed by drain_growth).
            self._pending_added.append(task)
            if not ready:
                # No event announced it: tell the run loop to come by.
                self.bus.touch()
        return task.future

    # -------------------------------------------------------------- lifecycle
    def finalize(self) -> None:
        """Close out this workflow's metrics (the run loop calls it when the
        workflow completes or is cancelled)."""
        # Per-task ready-to-execution-start wait — the quantity the serving
        # layer's arbitration policies trade between tenants — streamed from
        # the store's timestamp columns into the collector's bounded sketch.
        self.metrics.set_wait_times(self.graph.store.wait_values())
        self.metrics.workflow_finished(self.clock.now)

    def start(self) -> None:
        """Begin execution bookkeeping: scheduling context, scheduler
        initialisation, metrics.  The federation's run loop calls this when
        the workflow's (possibly staggered) arrival comes due."""
        self.context = SchedulingContext(
            graph=self.graph,
            endpoint_monitor=self.endpoint_monitor,
            execution_profiler=self.execution_profiler,
            transfer_profiler=self.transfer_profiler,
            data_manager=self.data_manager,
            config=self.config,
            clock=self.clock,
            speed_factors={
                name: self.fabric.speed_factor(name) for name in self.fabric.endpoint_names()
            },
        )
        self.scheduler.initialize(self.context)
        self.scheduler.on_workflow_submitted(self.graph.tasks())
        self.metrics.workflow_started(self.clock.now)
        self.periodic.sample_metrics(force=True)

    # ------------------------------------------------------------------ pump
    def add_growth_hook(self, hook: Callable[[], None]) -> None:
        """Register a workflow-growth source (an authoring runtime).

        Hooks run at the top of every pump round — a deterministic point
        *outside* any bus cascade — and may call :meth:`submit`.  Keeping
        growth out of completion cascades means the log holds a round's
        completions first, then the new tasks' ``TaskReady`` entries, however
        the completions were batched.
        """
        self._growth_hooks.append(hook)

    def drain_growth(self) -> bool:
        """Run growth hooks, then notify the scheduler of the round's batch.

        ``Scheduler.on_tasks_added`` is the sole graph-growth hook: every
        task submitted since the last round (by growth hooks or directly by
        the caller) lands in one batch, so DHA's incremental ancestors-only
        priority recompute runs once instead of once per task.

        Returns True when the graph grew (feeds stall detection and lets the
        run loop see recovery branches materialized by a terminal failure
        before it re-checks completion).
        """
        grew = False
        if self._growth_hooks:
            store = self.graph.store
            before = store.size
            for hook in self._growth_hooks:
                hook()
            grew = store.size > before
        if self._pending_added:
            batch = self._pending_added
            self._pending_added = []
            self.scheduler.on_tasks_added(batch)
        return grew

    def pump_due(self) -> bool:
        """Whether the run loop must visit this workflow again next round
        although no event says so.

        Every state change a visit reacts to is announced on :attr:`bus`,
        and the bus reports its activity to the run loop by itself
        (:meth:`~repro.engine.bus.EventBus.watch`); what is left is work a
        visit could not finish — a ready task the scheduler left queued, a
        submission not yet handed to the scheduler — and, with mocking
        disabled, endpoint state that moves without any event (every query
        re-reads the service).  The loop asks once, at the end of a visit.
        """
        return (
            self.index.queued_count > 0
            or bool(self._pending_added)
            or not self.endpoint_monitor.mocking_enabled
        )

    # ---------------------------------------------------------------- events
    def _on_endpoint_dynamics(self, event) -> None:
        """This workflow's reaction to a crash / rejoin / churn.

        The shared substrate has already reacted.  The workflow announces
        the capacity change and, once started, runs DHA's re-scheduling
        promptly — the reaction the scenario subsystem's chaos regimes
        exercise.  Not on a crash: the failure coordinator owns re-placement
        of the stranded tasks, and a rescheduling pass here too would move
        the same tasks twice (its TaskPlaced events are deferred by the bus
        cascade, so the coordinator cannot see them yet).
        """
        self.bus.publish(CapacityChanged(time=self.clock.now))
        if (
            self.context is not None
            and self.scheduler.supports_rescheduling
            and not isinstance(event, EndpointCrashed)
        ):
            self.periodic.run_rescheduling()

    def _prepare_ready(self, task: Task) -> None:
        """Input-file augmentation + cache invalidation for a ready task."""
        if self.staging.augment_input_files(task):
            # The task's input size just changed: the store's size column,
            # the task's own cached estimates, and its successors' are stale
            # — while this task has no outputs yet, their estimates predict
            # its output *from its input size*
            # (SchedulingContext.estimated_input_mb's fallback path).
            self.graph.store.input_mb[task._row] = files_size_mb(task.input_files)
            if self.context is not None:
                self.context.invalidate_task(task.task_id)
                for successor in task.successors:
                    self.context.invalidate_task(successor.task_id)

    def _on_task_failed(self, event: TaskFailed) -> None:
        self.metrics.record_failure()
        self.data_manager.store.release_task(event.task_id)
        if self.prefetcher is not None:
            self.prefetcher.on_task_terminal(event.task_id)

    def _on_task_ready(self, event: TaskReady) -> None:
        # Wait for the next pump round: in the scheduling queue, or in the
        # pinned set when the task carries an endpoint hint.
        task = event.task
        self._prepare_ready(task)
        self.index.enqueue(task, self.graph.store.endpoint[task._row] >= 0)

    def _handle_completions(self, records: List[TaskExecutionRecord]) -> None:
        """What a completion does — one fabric round's records, in order.

        Every record, successful or not, first reaches the three observers:
        endpoint monitor, task monitor, metrics.  A successful
        one then updates the graph, releases its data-plane pins, advances
        the prefetcher and queues the successors it made ready (pinned or
        not, the next pump round places them); the round's successes are
        announced as a single :class:`TasksCompleted`, whose ``scalar_log``
        holds the per-task log entries in the order things happened, and a
        single :class:`TasksReady`.  A failed attempt is announced on its
        own, as :class:`TaskCompleted`, whose handler is the §IV-G ladder;
        it starts a bus cascade of its own, so it flushes the pending batch
        first and the log stays in order.
        """
        if not records:
            return
        completed: List[Task] = []
        completed_records: List[TaskExecutionRecord] = []
        ready: List[Task] = []
        log: List[tuple] = []
        plane_store = self.data_manager.store
        now = self.clock.now
        stamp = round(now, 9)

        def flush() -> None:
            if not completed and not ready:
                return
            if completed:
                self.bus.publish(
                    TasksCompleted(
                        time=now,
                        count=len(completed),
                        scalar_log=tuple(log),
                        tasks=tuple(completed),
                        records=tuple(completed_records),
                    )
                )
            if ready:
                self.bus.publish(
                    TasksReady(time=now, count=len(ready), tasks=tuple(ready))
                )
            completed.clear()
            completed_records.clear()
            ready.clear()
            log.clear()

        for record in records:
            task = self.graph.get(record.task_id)
            cores = int(self.graph.store.cores[task._row])
            self.endpoint_monitor.record_completion(record.endpoint, cores=cores)
            self.task_monitor.observe_task(record)
            self.metrics.record_completion(
                record.endpoint, record.function_name, record.success
            )
            if not record.success:
                flush()
                self.bus.publish(
                    TaskCompleted(
                        time=now,
                        task=task,
                        task_id=task.task_id,
                        name=task.name,
                        endpoint=record.endpoint,
                        record=record,
                    )
                )
                continue
            log.append((stamp, "TaskCompleted", task.name, record.endpoint, True))
            completed.append(task)
            completed_records.append(record)
            newly_ready = self._apply_success(task, record)
            plane_store.release_task(record.task_id)
            if self.prefetcher is not None and task.successors:
                self.prefetcher.on_predecessor_progress(task)
            for ready_task in newly_ready:
                log.append((stamp, "TaskReady", ready_task.name))
                ready.append(ready_task)
                self._prepare_ready(ready_task)
                self.index.enqueue(ready_task, self.graph.store.endpoint[ready_task._row] >= 0)
        flush()

    def _apply_success(self, task: Task, record: TaskExecutionRecord) -> List[Task]:
        """State/bookkeeping effects of one successful completion; returns
        the successors it made ready (the caller announces them)."""
        self.graph.store.timestamps["started"][task._row] = record.started_at
        # Register output data produced on the endpoint.
        task.output_files = []
        result_value: Any = record.result
        if record.output_mb > 0:
            file_cls = RsyncFile if self.config.transfer_mechanism == "rsync" else GlobusFile
            output = file_cls(
                f"{task.task_id}.out", size_mb=record.output_mb, location=record.endpoint
            )
            # Register the produced replica with the data plane, which
            # charges it against the endpoint's storage budget.
            self.data_manager.register_output(output, record.endpoint)
            task.output_files.append(output)
            if result_value is None:
                result_value = output
        if isinstance(record.result, RemoteFile):
            self.data_manager.register_output(record.result, record.endpoint)
            task.output_files.append(record.result)

        task.result = result_value
        if self.context is not None:
            # Evict the finished task's own entries (never queried again in a
            # static DAG) so the caches — and the array-backed matrices,
            # whose row is recycled — stay bounded by the live task set.
            self.context.release_task(task.task_id)
            if task.output_files:
                # A completed task with output changes its consumers'
                # input-size estimates (they now see real files instead of
                # predictions); a task without output leaves them on the
                # prediction path, whose cached value is still exact.
                for successor in task.successors:
                    self.context.invalidate_task(successor.task_id)
        newly_ready = self.graph.mark_completed(task, now=record.completed_at)
        task.future.set_result(result_value)
        if task.predecessors:
            # Output lifecycle: this completion may have been the last read
            # of its parents' outputs — release their storage protection,
            # and *prune* fully-consumed entries so the live consumer map
            # stays O(active tasks), not O(all-time tasks).
            plane_store = self.data_manager.store
            for parent in task.predecessors:
                dep = parent.task_id
                remaining = self._consumer_counts.get(dep, 0) - 1
                if remaining > 0:
                    self._consumer_counts[dep] = remaining
                else:
                    self._consumer_counts.pop(dep, None)
                    for file in parent.output_files:
                        plane_store.mark_expendable(file)
        return newly_ready
