"""Decorator-based workflow authoring (dawgz-style) over the dynamic graph.

This module is the user-facing surface for every workflow shape the engine
runs: static DAGs, runtime graph growth, failure-dependent control flow, and
parametric fan-out.  The paper's static generators (Montage, drug screening,
stress, hot dataset) compose their DAGs straight through the client; the
workload table (:mod:`repro.authoring.registry`) names them and the authored
workflows alike.

A workflow is declared as a function whose body creates jobs::

    @workflow
    def screening(width=1000):
        @job(duration_s=2.0, output_mb=1.5)
        def prepare():
            ...

        @after(prepare)
        @job(duration_s=0.1, array=width)
        def dock():
            ...

        @after(dock, status="failure")
        @job(duration_s=1.0, retries=0)
        def triage():
            ...

Semantics (executed by :class:`~repro.authoring.runtime.WorkflowRun`):

- ``after(parent)`` (a *success* edge) passes the parent's future(s) to the
  child and, for plain jobs, is wired eagerly as an ordinary engine
  dependency — a workflow using only plain success edges (the ``layered``
  workload) materializes its whole DAG up front, with the engine calls a
  static generator makes.
- ``after(parent, status="failure")`` materializes the child only once the
  parent's §IV-G retry/reassign ladder is exhausted (terminal ``TaskFailed``)
  or a pre/postcondition is violated; ``status="any"`` fires on either
  terminal outcome.  Such children (and everything downstream of a guarded
  job) are *deferred*: they become engine tasks only when their trigger is
  observed, at a deterministic pump-round boundary.
- ``require(pred)`` gates materialization: evaluated right before the job
  would become an engine task; a falsy result fails the job without running
  it (its failure edges fire instead).
- ``ensure(pred)`` is a postcondition: evaluated when the engine task
  completes; a falsy result demotes the job's outcome to failure even though
  the task ran — the authoring-level conditional branch.
- ``array=n`` expands into ``n`` engine tasks lazily, in bounded batches, so
  a 100k-wide stage never holds 100k idle Python task objects (rows land in
  the columnar ``TaskStore`` as each batch materializes).
- ``max_trips=k, until=pred`` declares a convergence loop: trips run as
  chained engine tasks; ``until(trip)`` truthy stops with success, exhausting
  ``k`` trips without converging is a failure (catchable via a failure edge).

Every predicate receives a single int — the array index, the 1-based trip
number, or 0 for plain jobs — and must be deterministic: predicates are part
of the byte-determinism contract.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import WorkflowError
from repro.core.functions import FederatedFunction
from repro.workloads.spec import TaskTypeSpec, make_task_type

__all__ = [
    "EDGE_STATUSES",
    "Job",
    "JobEdge",
    "WorkflowDefinition",
    "after",
    "ensure",
    "job",
    "require",
    "workflow",
]

EDGE_STATUSES = ("success", "failure", "any")

Predicate = Callable[[int], bool]


#: One instantiation's task types, keyed by the :class:`TaskTypeSpec` fields
#: in declaration order: jobs declaring the same type share one spec and one
#: federated function, as a static generator's nodes share one ``fn``.
_TypeCache = Dict[tuple, Tuple[TaskTypeSpec, FederatedFunction]]


class _DefinitionContext(threading.local):
    def __init__(self) -> None:
        self.stack: List[Tuple[List["Job"], _TypeCache]] = []


_CONTEXT = _DefinitionContext()


class JobEdge:
    """One control/data edge between two jobs."""

    __slots__ = ("parent", "status")

    def __init__(self, parent: "Job", status: str = "success") -> None:
        if status not in EDGE_STATUSES:
            raise WorkflowError(
                f"unknown edge status {status!r}; expected one of {EDGE_STATUSES}"
            )
        self.parent = parent
        self.status = status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobEdge({self.parent.name!r}, status={self.status!r})"


class Job:
    """One declared job: a task template plus its edges and conditions.

    Created by the :func:`job` decorator inside a workflow body; array jobs
    and loop trips expand into many engine tasks at run time, all sharing one
    federated function (so the profilers aggregate observations per job).
    """

    __slots__ = (
        "fn",
        "name",
        "retries",
        "array",
        "max_trips",
        "until",
        "edges",
        "preconditions",
        "postconditions",
        "task_type",
        "function",
        "_siblings",
    )

    def __init__(
        self,
        fn: Callable,
        *,
        name: Optional[str] = None,
        function_name: Optional[str] = None,
        duration_s: float = 1.0,
        output_mb: float = 0.0,
        seconds_per_input_mb: float = 0.0,
        cores: int = 1,
        retries: Optional[int] = None,
        failure_rate: float = 0.0,
        array: Optional[int] = None,
        max_trips: Optional[int] = None,
        until: Optional[Predicate] = None,
    ) -> None:
        self.fn = fn
        self.name = name or fn.__name__
        self.retries = retries
        if array is not None and array < 1:
            raise WorkflowError("array size must be >= 1")
        if (max_trips is None) != (until is None):
            raise WorkflowError("loop jobs need both max_trips and until")
        if max_trips is not None and max_trips < 1:
            raise WorkflowError("max_trips must be >= 1")
        if array is not None and max_trips is not None:
            raise WorkflowError("a job cannot be both an array and a loop")
        self.array = array
        self.max_trips = max_trips
        self.until = until
        self.edges: List[JobEdge] = []
        self.preconditions: List[Predicate] = []
        self.postconditions: List[Predicate] = []
        # Jobs are identified by ``name`` (unique per workflow); the task
        # *type* the profilers and event log see defaults to it but can be
        # shared across jobs (``function_name``), e.g. when a generator
        # declares one job per DAG node of a single type.
        if not _CONTEXT.stack:
            raise WorkflowError(
                "@job used outside a @workflow body; declare jobs inside a "
                "workflow definition function"
            )
        jobs, types = _CONTEXT.stack[-1]
        key = (
            function_name or self.name,
            duration_s,
            output_mb,
            seconds_per_input_mb,
            cores,
            failure_rate,
        )
        shared = types.get(key)
        if shared is None:
            spec = TaskTypeSpec(*key)
            shared = types[key] = (spec, make_task_type(spec))
        self.task_type, self.function = shared
        self._siblings = jobs
        jobs.append(self)

    # ------------------------------------------------------------- wiring
    def after(self, *parents: "Job", status: str = "success") -> "Job":
        """Add edges from ``parents`` (fluent alternative to ``@after``)."""
        for parent in parents:
            if not isinstance(parent, Job):
                raise WorkflowError(
                    f"after() expects Job objects, got {type(parent).__name__}"
                )
            if parent is self:
                raise WorkflowError(f"job {self.name!r} cannot depend on itself")
            if parent._siblings is not self._siblings:
                raise WorkflowError(
                    f"job {self.name!r} cannot depend on {parent.name!r} from a "
                    "different workflow instantiation"
                )
            self.edges.append(JobEdge(parent, status=status))
        return self

    @property
    def duration_s(self) -> float:
        return self.task_type.duration_s

    @property
    def output_mb(self) -> float:
        return self.task_type.output_mb

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.name!r})"


def job(fn: Optional[Callable] = None, /, **kwargs) -> Callable:
    """Declare a job.  Usable bare (``@job``) or with options (``@job(...)``).

    Options: ``name``, ``function_name`` (shared task type across jobs),
    ``duration_s``, ``output_mb``, ``seconds_per_input_mb``, ``cores``,
    ``retries`` (per-task §IV-G budget override), ``failure_rate`` (poison
    injection), ``array`` (parametric fan-out width), ``max_trips`` +
    ``until`` (convergence loop).
    """
    if fn is None:
        return lambda f: Job(f, **kwargs)
    return Job(fn, **kwargs)


def after(*parents: Job, status: str = "success") -> Callable[[Job], Job]:
    """Edge decorator: ``@after(parent, status="failure")`` above ``@job``."""

    def decorator(child: Job) -> Job:
        if not isinstance(child, Job):
            raise WorkflowError("@after must be applied above @job")
        return child.after(*parents, status=status)

    return decorator


def require(pred: Predicate) -> Callable[[Job], Job]:
    """Precondition decorator: checked right before materialization."""

    def decorator(child: Job) -> Job:
        if not isinstance(child, Job):
            raise WorkflowError("@require must be applied above @job")
        child.preconditions.append(pred)
        return child

    return decorator


def ensure(pred: Predicate) -> Callable[[Job], Job]:
    """Postcondition decorator: checked when the engine task completes."""

    def decorator(child: Job) -> Job:
        if not isinstance(child, Job):
            raise WorkflowError("@ensure must be applied above @job")
        child.postconditions.append(pred)
        return child

    return decorator


class WorkflowDefinition:
    """A reusable workflow: instantiating it re-runs the declaration body.

    Each instantiation yields fresh :class:`Job` objects, so one definition
    can run as many concurrent tenants without shared mutable state.
    """

    def __init__(self, build_fn: Callable, name: Optional[str] = None) -> None:
        self.build_fn = build_fn
        self.name = name or build_fn.__name__
        #: ``(params, jobs)`` of the instantiation :meth:`task_types` built,
        #: handed to the next :meth:`instantiate` with equal parameters.
        self._spare: Optional[Tuple[dict, List[Job]]] = None
        #: Definitions are module-level and shared: one caller takes a spare.
        self._spare_lock = threading.Lock()

    def instantiate(self, **params) -> List[Job]:
        """Run the declaration body; returns jobs in declaration order.

        No list of jobs is returned twice.  The one :meth:`task_types` built
        is returned once, by the next call with equal parameters, in place of
        running the body again (a scenario pre-trains the profiler, then
        starts its first tenant).
        """
        with self._spare_lock:
            spare, self._spare = self._spare, None
        if spare is not None and spare[0] == params:
            return spare[1]
        jobs: List[Job] = []
        _CONTEXT.stack.append((jobs, {}))
        try:
            self.build_fn(**params)
        finally:
            _CONTEXT.stack.pop()
        if not jobs:
            raise WorkflowError(f"workflow {self.name!r} declares no jobs")
        names = set()
        for j in jobs:
            if j.name in names:
                raise WorkflowError(
                    f"workflow {self.name!r} declares job {j.name!r} twice; "
                    "job names must be unique within a workflow"
                )
            names.add(j.name)
        return jobs

    def task_types(self, **params) -> List[TaskTypeSpec]:
        """The task types one instantiation uses (profiler pre-training)."""
        jobs = self.instantiate(**params)
        self._spare = (params, jobs)
        return [j.task_type for j in jobs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkflowDefinition({self.name!r})"


def workflow(
    fn: Optional[Callable] = None, /, *, name: Optional[str] = None
) -> Callable:
    """Declare a workflow definition from a declaration-body function."""
    if fn is None:
        return lambda f: WorkflowDefinition(f, name=name)
    return WorkflowDefinition(fn, name=name)
