"""Tasks and the dynamic task graph (§III-B).

A workflow is a directed acyclic graph whose nodes are tasks (one invocation
of a decorated function) and whose edges are data dependencies created by
passing the :class:`~repro.core.futures.UniFuture` of one task as an argument
to another.  The graph is *dynamic*: tasks may be added while the workflow is
executing, which is why every mutation keeps the ready-set and dependency
counters incrementally up to date instead of recomputing them.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.exceptions import WorkflowError
from repro.core.functions import FederatedFunction, SimProfile
from repro.core.futures import UniFuture

__all__ = ["TIMESTAMP_FIELDS", "Task", "TaskGraph", "TaskState", "TaskTimestamps"]


class TaskState(str, Enum):
    """Life-cycle of a task as it moves through the UniFaaS pipeline.

    The states mirror Figures 2–4: a task becomes *ready* when its
    dependencies complete, is *scheduled* to an endpoint, sits in the data
    staging queue while its inputs move, waits *staged* in the client queue
    (DHA's delay mechanism), is *dispatched* to the endpoint, *runs* on a
    worker, and finally *completes* or *fails*.
    """

    PENDING = "pending"
    READY = "ready"
    SCHEDULED = "scheduled"
    STAGING = "staging"
    STAGED = "staged"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which a task can never run again.
TERMINAL_STATES = frozenset({TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED})

#: States in which the task has been placed on an endpoint but not finished.
IN_FLIGHT_STATES = frozenset(
    {TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED, TaskState.DISPATCHED, TaskState.RUNNING}
)


#: Timestamp field names, in life-cycle order.  The columnar
#: :class:`~repro.engine.store.TaskStore` keeps one float64 column (NaN =
#: unset) per entry, in this order.
TIMESTAMP_FIELDS = (
    "created",
    "ready",
    "scheduled",
    "staging_started",
    "staging_done",
    "dispatched",
    "started",
    "completed",
)


class TaskTimestamps:
    """Timeline of a task, filled in by the orchestration engine.

    Plain per-instance values until the owning task is inserted into a
    :class:`TaskGraph`; from then on the instance is a *view* onto the
    graph's columnar :class:`~repro.engine.store.TaskStore` — every read and
    write goes to the task's row in the store's timestamp arrays, so bulk
    scans (wait times, latency breakdowns) can run as array reductions.
    """

    __slots__ = ("_store", "_row", "_local")

    def __init__(
        self,
        created: float = 0.0,
        ready: Optional[float] = None,
        scheduled: Optional[float] = None,
        staging_started: Optional[float] = None,
        staging_done: Optional[float] = None,
        dispatched: Optional[float] = None,
        started: Optional[float] = None,
        completed: Optional[float] = None,
    ) -> None:
        self._store = None
        self._row = -1
        self._local: Dict[str, Optional[float]] = {
            "created": created,
            "ready": ready,
            "scheduled": scheduled,
            "staging_started": staging_started,
            "staging_done": staging_done,
            "dispatched": dispatched,
            "started": started,
            "completed": completed,
        }

    def _attach(self, store, row: int) -> None:
        """Copy the local values into ``store`` and become a view of them."""
        for name, value in self._local.items():
            store.set_timestamp(row, name, value)
        self._store = store
        self._row = row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in TIMESTAMP_FIELDS)
        return f"TaskTimestamps({fields})"

    @property
    def execution_time(self) -> Optional[float]:
        if self.started is None or self.completed is None:
            return None
        return self.completed - self.started

    @property
    def staging_time(self) -> Optional[float]:
        if self.staging_started is None or self.staging_done is None:
            return None
        return self.staging_done - self.staging_started

    @property
    def queue_time(self) -> Optional[float]:
        """Time between dispatch to the endpoint and execution start."""
        if self.dispatched is None or self.started is None:
            return None
        return self.started - self.dispatched


def _timestamp_property(name: str) -> property:
    def getter(self: TaskTimestamps) -> Optional[float]:
        if self._store is None:
            return self._local[name]
        return self._store.get_timestamp(self._row, name)

    def setter(self: TaskTimestamps, value: Optional[float]) -> None:
        if self._store is None:
            self._local[name] = value
        else:
            self._store.set_timestamp(self._row, name, value)

    return property(getter, setter)


for _name in TIMESTAMP_FIELDS:
    setattr(TaskTimestamps, _name, _timestamp_property(_name))
del _name


_task_counter = itertools.count()


def _next_task_id() -> str:
    return f"task-{next(_task_counter):08d}"


class Task:
    """One invocation of a federated function.

    Inside a :class:`TaskGraph`, a task is a lazy *view* over the graph's
    columnar :class:`~repro.engine.store.TaskStore`: writes to ``state``,
    ``assigned_endpoint``, ``priority`` and the timestamps are mirrored into
    the store's arrays (the Python attribute stays the fast scalar read
    path), so the engine's bulk queries never have to touch task objects.
    """

    def __init__(
        self,
        function: FederatedFunction,
        args: tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        task_id: Optional[str] = None,
        dependencies: Optional[Set[str]] = None,
        state: TaskState = TaskState.PENDING,
        future: Optional[UniFuture] = None,
        assigned_endpoint: Optional[str] = None,
        failed_endpoints: Optional[List[str]] = None,
        attempts: int = 0,
        timestamps: Optional[TaskTimestamps] = None,
        input_files: Optional[List[Any]] = None,
        output_files: Optional[List[Any]] = None,
        result: Any = None,
        priority: float = 0.0,
        reschedule_count: int = 0,
        max_retries: Optional[int] = None,
    ) -> None:
        self.function = function
        self.args = args
        self.kwargs: Dict[str, Any] = {} if kwargs is None else kwargs
        self.task_id = _next_task_id() if task_id is None else task_id
        #: Task ids this task depends on (edges into this node).
        self.dependencies: Set[str] = set() if dependencies is None else dependencies
        self._state = state
        self.future = future if future is not None else UniFuture(task_id=self.task_id)
        #: Endpoint the scheduler placed this task on (None until scheduled).
        self._assigned_endpoint = assigned_endpoint
        #: Endpoints on which this task already failed (used for reassignment).
        self.failed_endpoints: List[str] = (
            [] if failed_endpoints is None else failed_endpoints
        )
        self.attempts = attempts
        self.timestamps = timestamps if timestamps is not None else TaskTimestamps()
        #: Files this task reads (RemoteFile objects), discovered from arguments.
        self.input_files: List[Any] = [] if input_files is None else input_files
        #: Files this task produced (filled when the task completes).
        self.output_files: List[Any] = [] if output_files is None else output_files
        self.result = result
        #: DHA rank; larger means more urgent (§IV-D, eq. 2).
        self._priority = priority
        #: Number of times the re-scheduling mechanism moved this task.
        self.reschedule_count = reschedule_count
        #: Per-task override of ``Config.max_task_retries`` on the §IV-G
        #: failure ladder (``None`` = use the config default).  Set by the
        #: authoring API's ``@job(retries=...)``.
        self.max_retries: Optional[int] = max_retries
        self._store = None
        self._row = -1

    # ------------------------------------------------------------ store view
    def _attach(self, store, row: int) -> None:
        """Become a view over ``store``'s arrays at ``row``."""
        self._store = store
        self._row = row
        self.timestamps._attach(store, row)

    @property
    def state(self) -> TaskState:
        return self._state

    @state.setter
    def state(self, value: TaskState) -> None:
        self._state = value
        if self._store is not None:
            self._store.set_state(self._row, value)

    @property
    def assigned_endpoint(self) -> Optional[str]:
        return self._assigned_endpoint

    @assigned_endpoint.setter
    def assigned_endpoint(self, value: Optional[str]) -> None:
        self._assigned_endpoint = value
        if self._store is not None:
            self._store.set_endpoint(self._row, value)

    @property
    def priority(self) -> float:
        return self._priority

    @priority.setter
    def priority(self, value: float) -> None:
        self._priority = value
        if self._store is not None:
            self._store.priority[self._row] = value

    # ---------------------------------------------------------------- helpers
    @property
    def name(self) -> str:
        return self.function.name

    @property
    def sim_profile(self) -> Optional[SimProfile]:
        return self.function.sim_profile

    @property
    def cores(self) -> int:
        """Workers the task occupies (1 for functions without a SimProfile).

        Functions registered for real (local) execution need no simulation
        profile, so every consumer of the core count goes through this
        accessor instead of reading ``sim_profile.cores`` unconditionally.
        """
        profile = self.function.sim_profile
        return profile.cores if profile is not None else 1

    @property
    def input_size_mb(self) -> float:
        """Total size of this task's file inputs in MB."""
        return float(sum(getattr(f, "size_mb", 0.0) for f in self.input_files))

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def unresolved_dependencies(self, graph: "TaskGraph") -> Set[str]:
        """Dependencies that have not completed yet."""
        return {
            dep
            for dep in self.dependencies
            if graph.get(dep).state != TaskState.COMPLETED
        }

    def resolved_args(self, graph: "TaskGraph") -> Tuple[tuple, Dict[str, Any]]:
        """Arguments with future placeholders replaced by their results."""

        def resolve(value: Any) -> Any:
            if isinstance(value, UniFuture):
                if not value.done():
                    raise WorkflowError(
                        f"task {self.task_id} argument depends on unresolved task {value.task_id}"
                    )
                return value.result()
            return value

        args = tuple(resolve(a) for a in self.args)
        kwargs = {k: resolve(v) for k, v in self.kwargs.items()}
        return args, kwargs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.task_id}, fn={self.name}, state={self.state.value})"


class TaskGraph:
    """Dynamic DAG of tasks.

    The graph is built by :class:`~repro.core.client.UniFaaSClient` as
    decorated functions are invoked, and may continue to grow while earlier
    tasks execute.  Edges always point from producer to consumer; cycles are
    impossible by construction (a future can only be passed to a task created
    after its producer) but :meth:`add_dependency` still validates.
    """

    def __init__(self) -> None:
        # Imported lazily: repro.engine.store needs TaskState from this
        # module, so a top-level import here would be circular.
        from repro.engine.store import TaskStore

        self._tasks: Dict[str, Task] = {}
        #: Tasks by store row (insertion order) — the object side of the
        #: columnar store's stable int keys.
        self._by_row: List[Task] = []
        self._successors: Dict[str, Set[str]] = {}
        self._unfinished_dependency_count: Dict[str, int] = {}
        #: Columnar (struct-of-arrays) mirror of every task's hot state.
        #: State counts, ready-set extraction and per-endpoint demand live
        #: here as array aggregates instead of per-object scans.
        self.store = TaskStore()

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def get(self, task_id: str) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise WorkflowError(f"unknown task {task_id!r}") from None

    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def task_ids(self) -> List[str]:
        return list(self._tasks.keys())

    def successors(self, task_id: str) -> List[Task]:
        # Sorted for the same reason as predecessors(): consumers that act
        # per successor (the data plane's prefetcher) must see a
        # deterministic order regardless of hash randomisation.
        self.get(task_id)
        return [self._tasks[t] for t in sorted(self._successors.get(task_id, ()))]

    def predecessors(self, task_id: str) -> List[Task]:
        # Sorted so consumers (input-file augmentation, input-size estimates)
        # see a deterministic order regardless of hash randomisation.
        return [self._tasks[d] for d in sorted(self.get(task_id).dependencies)]

    def state_count(self, state: TaskState) -> int:
        return self.store.state_count(state)

    def counts(self) -> Dict[str, int]:
        """Number of tasks per state (keys are state values)."""
        return self.store.counts()

    def in_state(self, *states: TaskState) -> List[Task]:
        rows = self.store.rows_in_states(*states)
        return [self._by_row[row] for row in rows]

    def ready_tasks(self) -> List[Task]:
        return self.in_state(TaskState.READY)

    def is_complete(self) -> bool:
        """True when every task reached a terminal state."""
        return self.store.terminal == len(self._tasks) > 0

    def unfinished_count(self) -> int:
        return len(self._tasks) - self.store.terminal

    # ------------------------------------------------------------ mutation
    def add_task(self, task: Task, now: float = 0.0) -> Task:
        """Insert ``task`` and wire edges from its future-dependencies."""
        if task.task_id in self._tasks:
            raise WorkflowError(f"duplicate task id {task.task_id!r}")
        self._tasks[task.task_id] = task
        self._successors.setdefault(task.task_id, set())
        task.timestamps.created = now

        unresolved = 0
        for dep_id in sorted(task.dependencies):
            if dep_id not in self._tasks:
                raise WorkflowError(
                    f"task {task.task_id} depends on unknown task {dep_id!r}"
                )
            self._successors[dep_id].add(task.task_id)
            if self._tasks[dep_id].state != TaskState.COMPLETED:
                unresolved += 1
        self._unfinished_dependency_count[task.task_id] = unresolved

        if unresolved == 0:
            task.state = TaskState.READY
            task.timestamps.ready = now
        else:
            task.state = TaskState.PENDING
        row = self.store.add(
            task.task_id,
            state=task.state,
            cores=task.cores,
            input_mb=task.input_size_mb,
            priority=task.priority,
            endpoint=task.assigned_endpoint,
        )
        task._attach(self.store, row)
        self._by_row.append(task)
        return task

    def add_dependency(self, upstream_id: str, downstream_id: str) -> None:
        """Add an extra edge (used when a future is discovered late)."""
        upstream = self.get(upstream_id)
        downstream = self.get(downstream_id)
        if upstream_id == downstream_id:
            raise WorkflowError("a task cannot depend on itself")
        if downstream.state not in (TaskState.PENDING, TaskState.READY):
            raise WorkflowError(
                f"cannot add dependency to task {downstream_id} in state {downstream.state.value}"
            )
        if downstream_id in downstream.dependencies:
            return
        if self._would_create_cycle(upstream_id, downstream_id):
            raise WorkflowError(
                f"dependency {upstream_id} -> {downstream_id} would create a cycle"
            )
        if downstream_id in self._successors[upstream_id]:
            return
        downstream.dependencies.add(upstream_id)
        self._successors[upstream_id].add(downstream_id)
        if upstream.state != TaskState.COMPLETED:
            self._unfinished_dependency_count[downstream_id] += 1
            if downstream.state == TaskState.READY:
                self._set_state(downstream, TaskState.PENDING)

    def set_state(self, task_id: str, state: TaskState, now: Optional[float] = None) -> Task:
        """Move a task to ``state``, updating counters and timestamps."""
        task = self.get(task_id)
        self._set_state(task, state)
        if now is not None:
            ts = task.timestamps
            if state == TaskState.READY:
                ts.ready = now
            elif state == TaskState.SCHEDULED:
                ts.scheduled = now
            elif state == TaskState.STAGING:
                ts.staging_started = now
            elif state == TaskState.STAGED:
                ts.staging_done = now
            elif state == TaskState.DISPATCHED:
                ts.dispatched = now
            elif state == TaskState.RUNNING:
                ts.started = now
            elif state in (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED):
                ts.completed = now
        return task

    def mark_completed(self, task_id: str, now: Optional[float] = None) -> List[Task]:
        """Complete a task and return successors that just became ready."""
        task = self.get(task_id)
        if task.state == TaskState.COMPLETED:
            return []
        self.set_state(task_id, TaskState.COMPLETED, now)
        newly_ready: List[Task] = []
        for succ_id in sorted(self._successors.get(task_id, ())):
            remaining = self._unfinished_dependency_count[succ_id] - 1
            self._unfinished_dependency_count[succ_id] = remaining
            succ = self._tasks[succ_id]
            if remaining == 0 and succ.state == TaskState.PENDING:
                self.set_state(succ_id, TaskState.READY, now)
                newly_ready.append(succ)
        return newly_ready

    # ------------------------------------------------------------ analysis
    def roots(self) -> List[Task]:
        """Tasks with no dependencies."""
        return [t for t in self._tasks.values() if not t.dependencies]

    def leaves(self) -> List[Task]:
        """Tasks with no successors."""
        return [t for t in self._tasks.values() if not self._successors.get(t.task_id)]

    def topological_order(self) -> List[Task]:
        """Tasks in an order where producers precede consumers."""
        in_degree = {tid: len(t.dependencies) for tid, t in self._tasks.items()}
        queue = sorted(tid for tid, deg in in_degree.items() if deg == 0)
        order: List[Task] = []
        idx = 0
        while idx < len(queue):
            tid = queue[idx]
            idx += 1
            order.append(self._tasks[tid])
            for succ in sorted(self._successors.get(tid, ())):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._tasks):
            raise WorkflowError("task graph contains a cycle")
        return order

    def dfs_order(self, key=None) -> List[Task]:
        """Depth-first order over the DAG from its roots.

        The Capacity scheduler partitions the DAG in DFS order so that tasks
        on the same root-to-leaf path land on the same endpoint (§IV-D).
        """
        visited: Set[str] = set()
        order: List[Task] = []
        roots = sorted(self.roots(), key=key or (lambda t: t.task_id))

        for root in roots:
            stack = [root.task_id]
            while stack:
                tid = stack.pop()
                if tid in visited:
                    continue
                task = self._tasks[tid]
                if any(dep not in visited for dep in task.dependencies):
                    # Defer until all predecessors have been emitted so the
                    # order stays a valid topological order.
                    continue
                visited.add(tid)
                order.append(task)
                children = sorted(self._successors.get(tid, ()), reverse=True)
                stack.extend(children)
        # Tasks unreachable through the DFS (e.g. deferred joins) are emitted
        # in topological order at the end.
        if len(order) != len(self._tasks):
            emitted = {t.task_id for t in order}
            for task in self.topological_order():
                if task.task_id not in emitted:
                    order.append(task)
        return order

    def critical_path_length(self, weight=None) -> float:
        """Length of the longest path, using ``weight(task)`` per node."""
        weight = weight or (lambda task: 1.0)
        longest: Dict[str, float] = {}
        for task in self.topological_order():
            best_pred = max(
                (longest[d] for d in task.dependencies), default=0.0
            )
            longest[task.task_id] = best_pred + weight(task)
        return max(longest.values(), default=0.0)

    # ------------------------------------------------------------- internal
    def _set_state(self, task: Task, state: TaskState) -> None:
        # The Task.state property mirrors the write into the store, which
        # maintains the per-state counts and per-endpoint aggregates.
        task.state = state

    def _would_create_cycle(self, upstream_id: str, downstream_id: str) -> bool:
        """True if ``downstream_id`` can already reach ``upstream_id``."""
        stack = [downstream_id]
        seen = set()
        while stack:
            node = stack.pop()
            if node == upstream_id:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors.get(node, ()))
        return False
