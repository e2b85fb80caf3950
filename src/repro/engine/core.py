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
on a cadence.  The monitors, the metrics collector and the scheduler observe
a dispatch and a completion by direct call, in one fixed order, at the one
place each happens (:meth:`~repro.engine.dispatch.DispatchCoordinator.dispatch`,
:meth:`ExecutionEngine._handle_completions`); the bus then announces the
round's batch.

An engine is strictly *per-workflow* state.  Everything shared — fabric,
clock, monitors, profilers, data manager, placement service — belongs to the
federation (:class:`~repro.serving.manager.WorkflowManager`) that constructs
the engine and drives it from the one run loop; the single-workflow
:class:`~repro.core.client.UniFaaSClient` is a one-tenant federation.  The
engine is deliberately single-threaded and runs identically on the
discrete-event simulation substrate (experiments) and on real thread-pool
endpoints (examples).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.core.dag import Task, TaskGraph, TaskState
from repro.core.functions import FederatedFunction
from repro.core.futures import UniFuture
from repro.data.remote_file import GlobusFile, RemoteFile, RsyncFile
from repro.dataplane import DataPlane, Prefetcher
from repro.engine.bus import EventBus
from repro.engine.dispatch import DispatchCoordinator
from repro.engine.events import (
    CapacityChanged,
    EndpointCrashed,
    EndpointRejoined,
    TaskCompleted,
    TaskFailed,
    TaskPlaced,
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
    from repro.serving.manager import WorkflowManager

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
        federation: "WorkflowManager",
        *,
        scheduler: Optional[Scheduler] = None,
        metrics: Optional[MetricsCollector] = None,
        namespace: str = "",
    ) -> None:
        # The shared substrate, by reference: one of each, federation-wide.
        self.federation = federation
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
        self.index = TaskIndex(self.graph.store)
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
        self.metrics = metrics or MetricsCollector()
        if self.plan_service is not None:
            self.plan_service.attach(self)
            self.scheduler.plan_provider = self.plan_service.current_plan

        # Engine state.
        self.context: Optional[SchedulingContext] = None
        self._running = False
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

        self.bus.subscribe(CapacityChanged, lambda e: self.scheduler.on_capacity_changed())

        # Endpoint dynamics (crash / rejoin / churn) change capacity out from
        # under the mocked view: re-synchronise the monitor and react at once
        # instead of waiting for the periodic cadences.  Subscribed before
        # the coordinators so the failure coordinator's crash handler sees
        # fresh online flags.
        for dynamics_type in (EndpointCrashed, EndpointRejoined, WorkerChurn):
            self.bus.subscribe(dynamics_type, self._on_endpoint_dynamics)

        # Coordinators (their constructors subscribe to the bus).
        self.placement = PlacementCoordinator(self)
        self.staging = StagingCoordinator(self)
        self.dispatch = DispatchCoordinator(self)
        self.failure = FailureCoordinator(self)
        self.periodic = PeriodicCoordinator(self)
        self.bus.subscribe(TaskReady, self._on_task_ready)

        # Data-plane wiring: pin lifecycle on terminal failure, crash cleanup
        # and the prefetch pipeline (a successful completion releases its pins
        # and advances the prefetcher in _handle_completions).
        self.prefetcher: Optional[Prefetcher] = None
        if isinstance(self.data_manager, DataPlane):
            plane = self.data_manager
            self.bus.subscribe(TaskFailed, lambda e: plane.release_task(e.task_id))
            # On this workflow's own bus, so the quarantine lands after the
            # synchronous dynamics handlers above (the failure coordinator's
            # re-placements are still deferred in the bus cascade) and before
            # any re-placed task stages — never from a replica on the dead
            # endpoint.  Every tenant forwards the same event; the plane
            # ignores the repeats.
            self.bus.subscribe(
                EndpointCrashed, lambda e: plane.on_endpoint_crashed(e.endpoint)
            )
            self.bus.subscribe(
                EndpointRejoined, lambda e: plane.on_endpoint_rejoined(e.endpoint)
            )
            if config.enable_prefetch:
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
                self.bus.subscribe(
                    TaskPlaced,
                    lambda e: self.prefetcher.on_task_placed(e.task_id, e.endpoint),
                )
                self.bus.subscribe(
                    TaskFailed,
                    lambda e: self.prefetcher.on_task_terminal(e.task_id),
                )

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
        for dep in dependencies:
            self._consumer_counts[dep] = self._consumer_counts.get(dep, 0) + 1
            if isinstance(self.data_manager, DataPlane) and dep in self.graph:
                # Dynamic DAG: a new consumer re-protects outputs the
                # lifecycle hook may already have marked expendable.
                for file in self.graph.get(dep).output_files:
                    self.data_manager.store.reclaim(file)
        if endpoint_hint is not None:
            task.assigned_endpoint = str(endpoint_hint)
        if max_retries is not None:
            task.max_retries = int(max_retries)
        self.graph.add_task(task, now=self.clock.now())

        ready = task.state == TaskState.READY
        if ready:
            self.bus.publish(TaskReady.for_task(task, time=self.clock.now()))
        if self._running:
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
        self.metrics.workflow_finished(self.clock.now())

    def start(self) -> None:
        """Begin execution bookkeeping: scheduling context, scheduler
        initialisation, metrics.  The federation's run loop calls this when
        the workflow's (possibly staggered) arrival comes due."""
        self._running = True
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
        self.metrics.workflow_started(self.clock.now())
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
        before = len(self.graph)
        for hook in self._growth_hooks:
            hook()
        if self._pending_added:
            batch = self._pending_added
            self._pending_added = []
            self.scheduler.on_tasks_added(batch)
        return len(self.graph) > before

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
        """React to a crash / rejoin / churn announced on the bus.

        The service notices the connection change immediately (heartbeat),
        so the monitor force-syncs against it; the elastic scaler and DHA's
        re-scheduling then run promptly — the reactions the scenario
        subsystem's chaos regimes exercise.
        """
        self.endpoint_monitor.synchronize(force=True)
        self.bus.publish(CapacityChanged(time=self.clock.now()))
        if self.plan_service is not None:
            # Dynamics invalidate the plan (the service's generation mirrors
            # the monitor's state_version idiom): a crash excludes the
            # endpoint from future solves, a rejoin re-admits it, churn just
            # forces a re-solve.  Every tenant engine forwards the same event;
            # the service dedups the bump.
            if isinstance(event, EndpointCrashed):
                self.plan_service.mark_offline(event.endpoint)
            elif isinstance(event, EndpointRejoined):
                self.plan_service.mark_online(event.endpoint)
            else:
                self.plan_service.bump()
        if self._running:
            if self.plan_service is not None:
                # Re-solve before the reactions below so the scaler and the
                # re-scheduling pass already steer by the post-event plan.
                self.plan_service.maybe_resolve(self.clock.now(), self)
            self.federation.scale_now(event)
            # On a crash the failure coordinator owns re-placement of the
            # stranded tasks; running a rescheduling pass here too would move
            # the same tasks twice (its TaskPlaced events are deferred by the
            # bus cascade, so the coordinator cannot see them yet).
            if self.scheduler.supports_rescheduling and not isinstance(event, EndpointCrashed):
                self.periodic.run_rescheduling()

    def _prepare_ready(self, task: Task) -> None:
        """Input-file augmentation + cache invalidation for a ready task."""
        if self.staging.augment_input_files(task):
            # The task's input size just changed: the store's size column,
            # the task's own cached estimates, and its successors' are stale
            # — while this task has no outputs yet, their estimates predict
            # its output *from its input size*
            # (SchedulingContext.estimated_input_mb's fallback path).
            self.graph.store.input_mb[task._row] = task.input_size_mb
            if self.context is not None:
                self.context.invalidate_task(task.task_id)
                for successor in self.graph.successors(task.task_id):
                    self.context.invalidate_task(successor.task_id)

    def _on_task_ready(self, event: TaskReady) -> None:
        # Queue for the next scheduling round; endpoint-pinned tasks join the
        # queue too and bypass the scheduler when the round runs.
        self._prepare_ready(event.task)
        self.placement.enqueue(event.task)

    def _handle_completions(self, records: List[TaskExecutionRecord]) -> None:
        """What a completion does — one fabric round's records, in order.

        Every record, successful or not, first reaches the four observers:
        endpoint monitor, task monitor, metrics, scheduler.  A successful
        one then updates the graph, releases its data-plane pins, advances
        the prefetcher and queues the successors it made ready; the round's
        successes are announced as a single :class:`TasksCompleted`, whose
        ``scalar_log`` holds the per-task log entries in the order things
        happened, and a single :class:`TasksReady`.  A failed attempt is
        announced on its own, as :class:`TaskCompleted`, whose handler is
        the §IV-G ladder.  Whatever starts a bus cascade of its own — a
        failed record, endpoint-pinned successors going straight to staging
        — flushes the pending batch first, so the log stays in order.
        """
        if not records:
            return
        completed: List[Task] = []
        completed_records: List[TaskExecutionRecord] = []
        ready: List[Task] = []
        log: List[tuple] = []
        plane = self.data_manager if isinstance(self.data_manager, DataPlane) else None

        def flush() -> None:
            if not completed and not ready:
                return
            now = self.clock.now()
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
            self.endpoint_monitor.record_completion(record.endpoint, cores=task.cores)
            self.task_monitor.observe_task(record)
            self.metrics.record_completion(
                record.endpoint, record.function_name, record.success
            )
            self.scheduler.on_task_completed(task, record)
            now = self.clock.now()
            if not record.success:
                flush()
                self.bus.publish(
                    TaskCompleted.for_task(
                        task,
                        time=now,
                        endpoint=record.endpoint,
                        record=record,
                    )
                )
                continue
            log.append((round(now, 9), "TaskCompleted", task.name, record.endpoint, True))
            completed.append(task)
            completed_records.append(record)
            newly_ready = self._apply_success(task, record)
            if plane is not None:
                plane.release_task(record.task_id)
            if self.prefetcher is not None:
                self.prefetcher.on_predecessor_progress(record.task_id)
            pinned: List[Task] = []
            for ready_task in newly_ready:
                log.append((round(now, 9), "TaskReady", ready_task.name))
                ready.append(ready_task)
                self._prepare_ready(ready_task)
                if ready_task.assigned_endpoint is None:
                    self.placement.enqueue(ready_task)
                else:
                    pinned.append(ready_task)
            if pinned:
                # Endpoint-pinned successors go straight to staging via
                # TaskPlaced; their cascade must observe the batch first, and
                # the whole group is enqueued before any cascade runs.
                flush()
                self.bus.publish_many(
                    TaskPlaced.for_task(t, time=now, endpoint=t.assigned_endpoint)
                    for t in pinned
                )
        flush()

    def _apply_success(self, task: Task, record: TaskExecutionRecord) -> List[Task]:
        """State/bookkeeping effects of one successful completion; returns
        the successors it made ready (the caller announces them)."""
        task.timestamps.started = record.started_at
        # Register output data produced on the endpoint.
        task.output_files = []
        result_value: Any = record.result
        if record.output_mb > 0:
            file_cls = RsyncFile if self.config.transfer_mechanism == "rsync" else GlobusFile
            output = file_cls(
                f"{task.task_id}.out", size_mb=record.output_mb, location=record.endpoint
            )
            # Register the produced replica with the data layer: a no-op for
            # the FIFO manager (the location is already set), but the data
            # plane charges it against the endpoint's storage budget.
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
                for successor in self.graph.successors(task.task_id):
                    self.context.invalidate_task(successor.task_id)
        newly_ready = self.graph.mark_completed(task.task_id, now=record.completed_at)
        task.future.set_result(result_value)
        if task.dependencies:
            # Output lifecycle: this completion may have been the last read
            # of its parents' outputs — release their storage protection,
            # and *prune* fully-consumed entries so the live consumer map
            # stays O(active tasks), not O(all-time tasks).
            plane_store = (
                self.data_manager.store
                if isinstance(self.data_manager, DataPlane)
                else None
            )
            for dep in sorted(task.dependencies):
                remaining = self._consumer_counts.get(dep, 0) - 1
                if remaining > 0:
                    self._consumer_counts[dep] = remaining
                else:
                    self._consumer_counts.pop(dep, None)
                if plane_store is not None and remaining <= 0 and dep in self.graph:
                    for file in self.graph.get(dep).output_files:
                        plane_store.mark_expendable(file)
        return newly_ready
