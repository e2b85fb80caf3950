"""Runtime that executes an authored workflow over the dynamic task graph.

:class:`WorkflowRun` bridges the declarative surface of
:mod:`repro.authoring.api` and the engine's runtime-growth machinery:

- Plain success-edge jobs materialize *eagerly* at start, in declaration
  order, with their parents' futures as arguments — exactly the engine calls
  a legacy static generator makes, which is why a workflow using only those
  constructs is digest-identical to its static original.
- Everything else (failure/any edges, pre/postconditions, arrays, loops, and
  anything downstream of them) is *deferred*: the run records terminal
  outcomes from the bus (it never publishes or submits during a cascade) and
  materializes newly-enabled jobs in :meth:`drain`, which the engine invokes
  as a growth hook at the top of every pump round.  That boundary is what
  keeps runtime growth byte-deterministic however completions are batched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.authoring.api import Job, WorkflowDefinition
from repro.core.exceptions import WorkflowError
from repro.core.futures import UniFuture
from repro.engine.core import MAX_RETRIES_KWARG
from repro.engine.events import TaskFailed, TasksCompleted
from repro.workloads.spec import WorkloadInfo

__all__ = ["JobOutcome", "WorkflowRun"]


class JobOutcome:
    """Authoring-level terminal states of a job."""

    SUCCESS = "success"
    FAILURE = "failure"
    #: The job's edge condition can never be satisfied (e.g. a failure edge
    #: whose parent succeeded); it produces no engine tasks.
    SKIPPED = "skipped"


#: How many array elements may be live (materialized but not terminal) at
#: once.  Each drain tops the window back up, so a 100k-wide stage flows
#: through in bounded slices instead of 100k idle Task objects.
ARRAY_BATCH = 2048


class _JobRun:
    """Mutable per-job execution state."""

    __slots__ = (
        "job",
        "deferred",
        "guarded",
        "started",
        "terminal",
        "succeeded",
        "failed",
        "futures",
        "outcome",
        "trip",
        "trip_done",
        "trip_ok",
    )

    def __init__(self, job: Job) -> None:
        self.job = job
        self.deferred = False
        self.guarded = False
        #: Elements materialized so far (engine tasks + require-failed ones).
        self.started = 0
        #: Elements with a terminal outcome.
        self.terminal = 0
        self.succeeded = 0
        self.failed = 0
        self.futures: List[UniFuture] = []
        self.outcome: Optional[str] = None
        #: Loop state: completed-or-running trip number (1-based).
        self.trip = 0
        self.trip_done = False
        self.trip_ok = False

    @property
    def total(self) -> int:
        return self.job.array if self.job.array is not None else 1


class WorkflowRun:
    """Drive one instantiation of a :class:`WorkflowDefinition`.

    ``client`` is anything with the client facade (``submit``, ``engine``):
    a :class:`~repro.core.client.UniFaaSClient` or a serving-layer
    :class:`~repro.serving.manager.WorkflowHandle` — authored workflows run
    unchanged as tenants.
    """

    def __init__(
        self,
        definition: WorkflowDefinition,
        client,
        *,
        params: Optional[dict] = None,
        info: Optional[WorkloadInfo] = None,
    ) -> None:
        self.definition = definition
        self.client = client
        self.engine = client.engine
        self.info = info if info is not None else WorkloadInfo(name=definition.name)
        self.jobs = definition.instantiate(**(params or {}))
        self._runs: List[_JobRun] = [_JobRun(j) for j in self.jobs]
        self._by_job: Dict[Job, _JobRun] = {r.job: r for r in self._runs}
        self._by_task: Dict[str, Tuple[_JobRun, int]] = {}
        self._classify()
        self._started = False

    # --------------------------------------------------------- classification
    def _classify(self) -> None:
        """Split jobs into the eager prefix and the deferred remainder.

        A job is *guarded* when its authoring-level outcome must be observed
        before its children materialize: arrays, loops, conditions, poison
        failure injection, a failure/any edge watching it (the author expects
        it may fail, so success-edge siblings must wait for the verdict too —
        eagerly wiring them to a future that may never resolve would starve
        the engine instead of skipping the branch), or being itself deferred.
        A job is *deferred* when any edge is failure/any or any parent is
        guarded.  Declaration order guarantees parents classify first.
        """
        watched = set()
        for run in self._runs:
            for edge in run.job.edges:
                if edge.status != "success":
                    watched.add(edge.parent)
        for run in self._runs:
            job = run.job
            deferred = any(e.status != "success" for e in job.edges)
            for edge in job.edges:
                if self._by_job[edge.parent].guarded:
                    deferred = True
            run.deferred = deferred
            run.guarded = bool(
                deferred
                or job in watched
                or job.task_type.failure_rate > 0.0
                or job.array is not None
                or job.is_loop
                or job.preconditions
                or job.postconditions
            )

    # ----------------------------------------------------------------- start
    def start(self) -> "WorkflowRun":
        """Subscribe, materialize the eager prefix, install the growth hook."""
        if self._started:
            raise WorkflowError(f"workflow run {self.definition.name!r} already started")
        self._started = True
        bus = self.engine.bus
        bus.subscribe(TasksCompleted, self._on_tasks_completed)
        bus.subscribe(TaskFailed, self._on_task_failed)
        for run in self._runs:
            if not run.deferred and not run.guarded:
                self._materialize_plain(run)
        self.engine.add_growth_hook(self.drain)
        # Guarded roots (arrays, loops, conditioned jobs without deferred
        # parents) materialize through the same path as later growth.
        self.drain()
        return self

    # --------------------------------------------------------- bus recording
    # Handlers only update counters — submissions happen in drain(), outside
    # every cascade.
    def _on_tasks_completed(self, event: TasksCompleted) -> None:
        for task in event.tasks:
            self._record_terminal(task.task_id, True)

    def _on_task_failed(self, event: TaskFailed) -> None:
        self._record_terminal(event.task_id, False)

    def _record_terminal(self, task_id: str, success: bool) -> None:
        entry = self._by_task.get(task_id)
        if entry is None:
            return
        run, index = entry
        ok = success
        if ok:
            for pred in run.job.postconditions:
                if not pred(index):
                    ok = False
                    break
        run.terminal += 1
        if ok:
            run.succeeded += 1
        else:
            run.failed += 1
        if run.job.is_loop:
            run.trip_done = True
            run.trip_ok = ok

    # ----------------------------------------------------------------- drain
    def drain(self) -> None:
        """Materialize every newly-enabled job (engine growth hook).

        Runs to a fixpoint so a require-failure cascades through its failure
        edges within one pump round.
        """
        changed = True
        while changed:
            changed = False
            for run in self._runs:
                changed |= self._advance(run)

    def _advance(self, run: _JobRun) -> bool:
        if run.outcome is not None:
            return False
        if not run.deferred and not run.guarded:
            # Eager plain job: just resolve its outcome for downstream edges.
            if run.started and run.terminal >= run.total:
                run.outcome = (
                    JobOutcome.SUCCESS if run.failed == 0 else JobOutcome.FAILURE
                )
                return True
            return False
        if not run.started:
            enabled = self._edges_decided(run)
            if enabled is None:
                return False
            if not enabled:
                run.outcome = JobOutcome.SKIPPED
                return True
            return self._materialize(run)
        return self._progress_started(run)

    def _edges_decided(self, run: _JobRun) -> Optional[bool]:
        """None = still waiting; True = all edges satisfied; False = dead."""
        for edge in run.job.edges:
            outcome = self._by_job[edge.parent].outcome
            if outcome is None:
                return None
            if edge.status == "success" and outcome != JobOutcome.SUCCESS:
                return False
            if edge.status == "failure" and outcome != JobOutcome.FAILURE:
                return False
            if edge.status == "any" and outcome == JobOutcome.SKIPPED:
                return False
        return True

    # -------------------------------------------------------- materialization
    def _parent_args(self, job: Job) -> Tuple:
        """Data flow: futures of success-edge parents, in edge order."""
        args: List[UniFuture] = []
        for edge in job.edges:
            if edge.status == "success":
                args.extend(self._by_job[edge.parent].futures)
        return tuple(args)

    def _submit(self, run: _JobRun, index: int, args: Tuple) -> None:
        job = run.job
        kwargs = {}
        if job.retries is not None:
            kwargs[MAX_RETRIES_KWARG] = job.retries
        future = self.client.submit(job.function, args, kwargs)
        self._by_task[future.task_id] = (run, index)
        run.futures.append(future)
        self.info.register(future, job.name, job.duration_s, job.output_mb)

    def _materialize_plain(self, run: _JobRun) -> None:
        """Eager path: one engine task, parents wired as future arguments."""
        args = self._parent_args(run.job)
        run.started = 1
        self._submit(run, 0, args)

    def _materialize(self, run: _JobRun) -> bool:
        job = run.job
        if job.is_loop:
            return self._start_trip(run, 1)
        if job.array is not None:
            return self._top_up_array(run)
        if not self._check_require(run, 0):
            return True
        run.started = 1
        self._submit(run, 0, self._parent_args(job))
        return True

    def _check_require(self, run: _JobRun, index: int) -> bool:
        """Evaluate preconditions; on violation the element fails unrun."""
        for pred in run.job.preconditions:
            if not pred(index):
                run.started += 1
                run.terminal += 1
                run.failed += 1
                if run.job.array is None:
                    run.outcome = JobOutcome.FAILURE
                return False
        return True

    def _start_trip(self, run: _JobRun, trip: int) -> bool:
        run.trip = trip
        run.trip_done = False
        run.started += 1
        if not self._check_require(run, trip):
            # _check_require already counted the element; undo the double
            # started bump and fail the loop outright.
            run.started -= 1
            return True
        args = (
            (run.futures[-1],) if trip > 1 else self._parent_args(run.job)
        )
        self._submit(run, trip, args)
        return True

    def _top_up_array(self, run: _JobRun) -> bool:
        """Materialize the next slice of an array job's window.

        Hysteresis: refill only once the live window has half-drained, so
        the scheduler sees a few large ``on_tasks_added`` batches (its
        incremental recompute amortizes) instead of a per-round trickle.
        """
        total = run.job.array or 0
        live = run.started - run.terminal
        if run.started >= total or (run.started > 0 and live > ARRAY_BATCH // 2):
            return False
        want = min(total, run.terminal + ARRAY_BATCH)
        if want <= run.started:
            return False
        args = self._parent_args(run.job)
        changed = False
        index = run.started
        while run.started < want:
            if self._check_require(run, index):
                run.started += 1
                self._submit(run, index, args)
            index += 1
            changed = True
        return changed

    # ------------------------------------------------------------- progress
    def _progress_started(self, run: _JobRun) -> bool:
        job = run.job
        if job.is_loop:
            if not run.trip_done:
                return False
            if not run.trip_ok:
                run.outcome = JobOutcome.FAILURE
                return True
            if job.until is not None and job.until(run.trip):
                run.outcome = JobOutcome.SUCCESS
                return True
            if run.trip >= (job.max_trips or 1):
                # Bounded trip count exhausted without converging.
                run.outcome = JobOutcome.FAILURE
                return True
            return self._start_trip(run, run.trip + 1)
        if job.array is not None:
            changed = self._top_up_array(run)
            if run.terminal >= (job.array or 0):
                run.outcome = (
                    JobOutcome.SUCCESS if run.failed == 0 else JobOutcome.FAILURE
                )
                return True
            return changed
        if run.terminal >= 1:
            run.outcome = (
                JobOutcome.SUCCESS if run.failed == 0 else JobOutcome.FAILURE
            )
            return True
        return False

    # ------------------------------------------------------------ inspection
    def outcome(self, job_name: str) -> Optional[str]:
        """The authoring-level outcome of a job (None while undecided)."""
        for run in self._runs:
            if run.job.name == job_name:
                return run.outcome
        raise WorkflowError(f"unknown job {job_name!r}")

    def outcomes(self) -> Dict[str, Optional[str]]:
        return {run.job.name: run.outcome for run in self._runs}

    def materialized(self, job_name: str) -> int:
        """Engine tasks created for a job so far."""
        for run in self._runs:
            if run.job.name == job_name:
                return len(run.futures)
        raise WorkflowError(f"unknown job {job_name!r}")
