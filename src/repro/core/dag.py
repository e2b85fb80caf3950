"""Tasks and the dynamic task graph (§III-B).

A workflow is a directed acyclic graph whose nodes are tasks (one invocation
of a decorated function) and whose edges are data dependencies created by
passing the :class:`~repro.core.futures.UniFuture` of one task as an argument
to another.  The graph is *dynamic*: tasks may be added while the workflow is
executing, which is why every mutation keeps the ready-set and dependency
counters incrementally up to date instead of recomputing them.

A task exists to become a node.  :meth:`TaskGraph.add_task` gives it a row
of the graph's columnar :class:`~repro.engine.store.TaskStore`, born READY
or PENDING, and that row is the only copy of the task's state, endpoint,
priority, input size and timestamps from then on.  The :class:`Task` object
carries what the row cannot: its function and arguments, its future, its
files, its retry bookkeeping and its neighbour lists.  It reads the rest
through the row, and :class:`TaskTimestamps` is a view of the row's
timestamp columns, built on access.
"""

from __future__ import annotations

import itertools
from bisect import insort
from enum import Enum
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.exceptions import WorkflowError
from repro.core.functions import FederatedFunction, SimProfile
from repro.core.futures import UniFuture

__all__ = ["COMPLETED_CODE", "PENDING_CODE", "READY_CODE", "STAGED_CODE", "STATES",
           "STATE_CODES", "TIMESTAMP_FIELDS", "Task", "TaskGraph", "TaskState",
           "TaskTimestamps", "files_size_mb", "state_codes", "task_id_of"]


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

#: Int code per state (declaration order): the TaskStore's state column.
STATE_CODES: Dict[TaskState, int] = {state: code for code, state in enumerate(TaskState)}
#: The state of each code: ``STATES[STATE_CODES[state]] is state``.
STATES: Tuple[TaskState, ...] = tuple(TaskState)
#: The codes column reads on the hot path compare against one at a time.
PENDING_CODE = STATE_CODES[TaskState.PENDING]
READY_CODE = STATE_CODES[TaskState.READY]
STAGED_CODE = STATE_CODES[TaskState.STAGED]
COMPLETED_CODE = STATE_CODES[TaskState.COMPLETED]


def state_codes(*states: TaskState) -> FrozenSet[int]:
    """The store codes of ``states``, for membership tests on column reads."""
    return frozenset(STATE_CODES[state] for state in states)


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
    """Timeline of a task, filled in by the orchestration engine: a view of
    the task's row of its graph's :class:`~repro.engine.store.TaskStore`
    timestamp columns, built by :attr:`Task.timestamps` on access."""

    __slots__ = ("_store", "_row")

    def __init__(self, store, row: int) -> None:
        self._store = store
        self._row = row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in TIMESTAMP_FIELDS)
        return f"TaskTimestamps({fields})"

    @property
    def staging_time(self) -> Optional[float]:
        if self.staging_started is None or self.staging_done is None:
            return None
        return self.staging_done - self.staging_started


_NAN = float("nan")


def _timestamp_property(name: str) -> property:
    def getter(self: TaskTimestamps) -> Optional[float]:
        value = self._store.timestamps[name][self._row]
        return None if value != value else float(value)

    def setter(self: TaskTimestamps, value: Optional[float]) -> None:
        self._store.timestamps[name][self._row] = _NAN if value is None else value

    return property(getter, setter)


for _name in TIMESTAMP_FIELDS:
    setattr(TaskTimestamps, _name, _timestamp_property(_name))
del _name

#: The key of every task-id order (adjacency lists bisect-insert on it).
task_id_of = attrgetter("task_id")


def files_size_mb(files) -> float:
    """Total ``size_mb`` of ``files`` (0 for an object without one): what a
    task's store row keeps in its ``input_mb`` column."""
    return float(sum(getattr(f, "size_mb", 0.0) for f in files))


_task_counter = itertools.count()


def _next_task_id() -> str:
    return f"task-{next(_task_counter):08d}"


class Task:
    """One invocation of a federated function — the authoring view of a node.

    A task exists to be inserted into a :class:`TaskGraph`: ``state``,
    ``assigned_endpoint``, ``priority``, ``input_size_mb`` and the
    timestamps read and write its row of the graph's columnar
    :class:`~repro.engine.store.TaskStore`, the only copy of them.
    :attr:`predecessors` / :attr:`successors` are the neighbour tasks in
    task-id order, kept by the graph (read-only).
    """

    def __init__(
        self,
        function: FederatedFunction,
        args: tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        task_id: Optional[str] = None,
        dependencies: Optional[Set[str]] = None,
    ) -> None:
        self.function = function
        #: The function's name, copied once (``function`` is never reassigned).
        self.name: str = function.name
        self.args = args
        self.kwargs: Dict[str, Any] = {} if kwargs is None else kwargs
        self.task_id = _next_task_id() if task_id is None else task_id
        #: Ids of the producers until insertion: the graph builds
        #: :attr:`predecessors` from them, then drops them.
        self._dependencies: Optional[Set[str]] = set() if dependencies is None else dependencies
        self.predecessors: List[Task] = []
        self.successors: List[Task] = []
        self.future = UniFuture(task_id=self.task_id)
        #: Endpoints on which this task already failed (used for reassignment).
        self.failed_endpoints: List[str] = []
        self.attempts = 0
        #: Files this task reads (RemoteFile objects), discovered from arguments.
        #: In a graph, a change must also write ``files_size_mb(input_files)``
        #: to the store's ``input_mb`` column (as ``ExecutionEngine._prepare_ready``
        #: does): that column is what :attr:`input_size_mb` reads.
        self.input_files: List[Any] = []
        #: Files this task produced (filled when the task completes).
        self.output_files: List[Any] = []
        self.result: Any = None
        #: Number of times the re-scheduling mechanism moved this task.
        self.reschedule_count = 0
        #: Per-task override of ``Config.max_task_retries`` on the §IV-G
        #: failure ladder (``None`` = use the config default).  Set by the
        #: authoring API's ``@job(retries=...)``.
        self.max_retries: Optional[int] = None
        #: The graph's store and this task's row in it, set at insertion.
        self._store = None
        self._row = -1

    # ------------------------------------------------------------ store view
    @property
    def dependencies(self) -> Set[str]:
        """Ids of the tasks this one depends on: a new set built from
        :attr:`predecessors`, the only copy of the edges."""
        return set(map(task_id_of, self.predecessors))

    @property
    def timestamps(self) -> TaskTimestamps:
        return TaskTimestamps(self._store, self._row)

    @property
    def state(self) -> TaskState:
        return STATES[self._store.state[self._row]]

    @state.setter
    def state(self, value: TaskState) -> None:
        self._store.set_state(self._row, value)

    @property
    def assigned_endpoint(self) -> Optional[str]:
        store = self._store
        index = store.endpoint[self._row]
        return None if index < 0 else store.endpoint_names[index]

    @assigned_endpoint.setter
    def assigned_endpoint(self, value: Optional[str]) -> None:
        self._store.set_endpoint(self._row, value)

    @property
    def priority(self) -> float:
        """The DHA rank, larger = more urgent (§IV-D, eq. 2)."""
        return float(self._store.priority[self._row])

    @priority.setter
    def priority(self, value: float) -> None:
        self._store.priority[self._row] = value

    # ---------------------------------------------------------------- helpers
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
        """Total size of this task's file inputs in MB: its store row's
        ``input_mb`` column rather than a re-sum over the files."""
        return float(self._store.input_mb[self._row])

    def resolved_args(self) -> Tuple[tuple, Dict[str, Any]]:
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
    after its producer).  Each task holds its neighbours in task-id order: no
    traversal sorts.
    """

    def __init__(self) -> None:
        # Imported lazily: repro.engine.store needs TaskState from this
        # module, so a top-level import here would be circular.
        from repro.engine.store import TaskStore

        self._tasks: Dict[str, Task] = {}
        #: Tasks by store row (insertion order) — the object side of the
        #: columnar store's stable int keys.
        self._by_row: List[Task] = []
        self._unfinished_dependency_count: Dict[str, int] = {}
        #: Columnar (struct-of-arrays) owner of every task's hot state.
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

    def find(self, task_id: str) -> Optional[Task]:
        """The task with ``task_id``, or ``None`` when the graph has none."""
        return self._tasks.get(task_id)

    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def successors(self, task_id: str) -> List[Task]:
        """The consumers of ``task_id`` in task-id order: the task's own list,
        which callers must not mutate nor grow the graph while iterating."""
        return self.get(task_id).successors

    def predecessors(self, task_id: str) -> List[Task]:
        """The producers of ``task_id`` in task-id order (read-only too)."""
        return self.get(task_id).predecessors

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
    def add_task(self, task: Task, now: float = 0.0, endpoint: Optional[str] = None) -> Task:
        """Insert ``task`` (pinned to ``endpoint`` when given: the engine's
        endpoint hint) and wire edges from its future-dependencies."""
        task_id = task.task_id
        tasks = self._tasks
        if task_id in tasks or task._store is not None:
            raise WorkflowError(f"duplicate task id {task_id!r}")
        dependencies = task._dependencies
        unknown = dependencies.difference(tasks)
        if unknown:
            raise WorkflowError(f"task {task_id} depends on unknown task {min(unknown)!r}")
        task.predecessors = list(map(tasks.__getitem__, sorted(dependencies)))
        store = self.store
        unresolved = 0
        for dep in task.predecessors:
            insort(dep.successors, task, key=task_id_of)
            if store.state[dep._row] != COMPLETED_CODE:
                unresolved += 1
        self._unfinished_dependency_count[task_id] = unresolved
        task._row = store.add(
            ready=not unresolved, now=now, cores=task.cores,
            input_mb=files_size_mb(task.input_files), endpoint=endpoint,
        )
        task._store = store
        task._dependencies = None
        tasks[task_id] = task
        self._by_row.append(task)
        return task

    def set_state(self, task: Task, state: TaskState, now: Optional[float] = None) -> Task:
        """Move ``task`` to ``state``, updating counters and, when ``now`` is
        given, the timestamp the transition stamps (the store's
        :meth:`~repro.engine.store.TaskStore.set_state`, which the engine's
        hot path calls on the task's row directly)."""
        store = self.store
        if task._store is not store:
            raise WorkflowError(f"unknown task {task.task_id!r}")
        store.set_state(task._row, state, now)
        return task

    def mark_completed(self, task: Task, now: Optional[float] = None) -> List[Task]:
        """Complete ``task`` and return the successors that just became
        ready, in task-id order."""
        store = self.store
        if task._store is not store:
            raise WorkflowError(f"unknown task {task.task_id!r}")
        state = store.state
        if state[task._row] == COMPLETED_CODE:
            return []
        store.set_state(task._row, TaskState.COMPLETED, now)
        remaining = self._unfinished_dependency_count
        newly_ready: List[Task] = []
        for succ in task.successors:
            count = remaining[succ.task_id] - 1
            remaining[succ.task_id] = count
            if count == 0 and state[succ._row] == PENDING_CODE:
                store.set_state(succ._row, TaskState.READY, now)
                newly_ready.append(succ)
        return newly_ready

    # ------------------------------------------------------------ analysis
    def roots(self) -> List[Task]:
        """Tasks with no dependencies."""
        return [t for t in self._tasks.values() if not t.predecessors]

    def topological_order(self) -> List[Task]:
        """Tasks in an order where producers precede consumers (Kahn's
        algorithm, roots and each task's successors in task-id order)."""
        in_degree = {tid: len(t.predecessors) for tid, t in self._tasks.items()}
        queue = sorted(self.roots(), key=task_id_of)
        idx = 0
        while idx < len(queue):
            task = queue[idx]
            idx += 1
            for succ in task.successors:
                in_degree[succ.task_id] -= 1
                if in_degree[succ.task_id] == 0:
                    queue.append(succ)
        if len(queue) != len(self._tasks):
            raise WorkflowError("task graph contains a cycle")
        return queue

    def dfs_order(self, key=None) -> List[Task]:
        """Depth-first order over the DAG from its roots.

        The Capacity scheduler partitions the DAG in DFS order so that tasks
        on the same root-to-leaf path land on the same endpoint (§IV-D).
        """
        visited: Set[str] = set()
        order: List[Task] = []
        roots = sorted(self.roots(), key=key or task_id_of)

        for root in roots:
            stack = [root]
            while stack:
                task = stack.pop()
                if task.task_id in visited:
                    continue
                if any(dep.task_id not in visited for dep in task.predecessors):
                    # Defer until all predecessors have been emitted so the
                    # order stays a valid topological order.
                    continue
                visited.add(task.task_id)
                order.append(task)
                stack.extend(reversed(task.successors))
        # Tasks unreachable through the DFS (e.g. deferred joins) are emitted
        # in topological order at the end.
        if len(order) != len(self._tasks):
            for task in self.topological_order():
                if task.task_id not in visited:
                    order.append(task)
        return order

    def critical_path_length(self, weight=None) -> float:
        """Length of the longest path, using ``weight(task)`` per node."""
        weight = weight or (lambda task: 1.0)
        longest: Dict[str, float] = {}
        for task in self.topological_order():
            best_pred = max((longest[d.task_id] for d in task.predecessors), default=0.0)
            longest[task.task_id] = best_pred + weight(task)
        return max(longest.values(), default=0.0)
