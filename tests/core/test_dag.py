"""Tests for Task and the dynamic task graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Task, TaskGraph, TaskState
from repro.core.exceptions import WorkflowError
from repro.core.functions import SimProfile, function

from tests.frames import python_frames


@function(sim_profile=SimProfile(base_time_s=5.0))
def noop(*args, **kwargs):
    return args


def make_task(deps=(), **kwargs):
    return Task(function=noop, dependencies=set(deps), **kwargs)


def chain_graph(n):
    """A linear chain t0 -> t1 -> ... -> t{n-1}."""
    graph = TaskGraph()
    prev = None
    tasks = []
    for _ in range(n):
        task = make_task(deps=[prev.task_id] if prev else [])
        graph.add_task(task)
        tasks.append(task)
        prev = task
    return graph, tasks


class TestTask:
    def test_unique_ids(self):
        assert make_task().task_id != make_task().task_id

    def test_future_carries_task_id(self):
        task = make_task()
        assert task.future.task_id == task.task_id

    def test_input_size_sums_file_sizes(self):
        class F:
            def __init__(self, size_mb):
                self.size_mb = size_mb

        task = make_task()
        task.input_files = [F(10.0), F(2.5)]
        TaskGraph().add_task(task)
        assert task.input_size_mb == pytest.approx(12.5)

    def test_resolved_args_substitutes_futures(self):
        graph = TaskGraph()
        producer = make_task()
        graph.add_task(producer)
        producer.future.set_result(99)
        graph.mark_completed(producer)

        consumer = make_task(deps=[producer.task_id])
        consumer.args = (producer.future, 1)
        consumer.kwargs = {"x": producer.future}
        graph.add_task(consumer)
        args, kwargs = consumer.resolved_args()
        assert args == (99, 1)
        assert kwargs == {"x": 99}

    def test_resolved_args_unresolved_future_raises(self):
        graph = TaskGraph()
        producer = make_task()
        graph.add_task(producer)
        consumer = make_task(deps=[producer.task_id])
        consumer.args = (producer.future,)
        graph.add_task(consumer)
        with pytest.raises(WorkflowError):
            consumer.resolved_args()


class TestGraphConstruction:
    def test_add_task_without_deps_is_ready(self):
        graph = TaskGraph()
        task = graph.add_task(make_task())
        assert task.state == TaskState.READY
        assert graph.ready_tasks() == [task]

    def test_add_task_with_pending_deps(self):
        graph, tasks = chain_graph(2)
        assert tasks[0].state == TaskState.READY
        assert tasks[1].state == TaskState.PENDING

    def test_duplicate_id_rejected(self):
        graph = TaskGraph()
        task = make_task()
        graph.add_task(task)
        dup = make_task()
        dup.task_id = task.task_id
        with pytest.raises(WorkflowError):
            graph.add_task(dup)

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(WorkflowError):
            graph.add_task(make_task(deps=["missing"]))

    def test_get_unknown_task_raises(self):
        with pytest.raises(WorkflowError):
            TaskGraph().get("nope")

    def test_contains_and_len(self):
        graph = TaskGraph()
        task = graph.add_task(make_task())
        assert task.task_id in graph
        assert len(graph) == 1

    def test_dependency_on_completed_task_is_ready(self):
        graph = TaskGraph()
        a = graph.add_task(make_task())
        graph.mark_completed(a)
        b = graph.add_task(make_task(deps=[a.task_id]))
        assert b.state == TaskState.READY


class TestCompletion:
    def test_mark_completed_releases_successors(self):
        graph, tasks = chain_graph(3)
        newly = graph.mark_completed(tasks[0], now=1.0)
        assert newly == [tasks[1]]
        assert tasks[1].state == TaskState.READY
        assert tasks[2].state == TaskState.PENDING

    def test_join_waits_for_all_predecessors(self):
        graph = TaskGraph()
        a = graph.add_task(make_task())
        b = graph.add_task(make_task())
        join = graph.add_task(make_task(deps=[a.task_id, b.task_id]))
        assert graph.mark_completed(a) == []
        assert join.state == TaskState.PENDING
        assert graph.mark_completed(b) == [join]

    def test_mark_completed_idempotent(self):
        graph, tasks = chain_graph(2)
        graph.mark_completed(tasks[0])
        assert graph.mark_completed(tasks[0]) == []
        assert graph.state_count(TaskState.COMPLETED) == 1

    def test_is_complete(self):
        graph, tasks = chain_graph(2)
        assert not graph.is_complete()
        graph.mark_completed(tasks[0])
        graph.mark_completed(tasks[1])
        assert graph.is_complete()
        assert graph.unfinished_count() == 0

    def test_empty_graph_is_not_complete(self):
        assert not TaskGraph().is_complete()

    def test_failed_task_counts_as_terminal(self):
        graph, tasks = chain_graph(1)
        graph.set_state(tasks[0], TaskState.FAILED, now=2.0)
        assert graph.is_complete()
        assert tasks[0].timestamps.completed == 2.0


class TestStateTracking:
    def test_set_state_updates_counts_and_timestamps(self):
        graph, tasks = chain_graph(1)
        t = tasks[0]
        graph.set_state(t, TaskState.SCHEDULED, now=1.0)
        graph.set_state(t, TaskState.STAGING, now=2.0)
        graph.set_state(t, TaskState.STAGED, now=5.0)
        graph.set_state(t, TaskState.DISPATCHED, now=6.0)
        graph.set_state(t, TaskState.RUNNING, now=7.0)
        graph.set_state(t, TaskState.COMPLETED, now=10.0)
        ts = t.timestamps
        assert ts.scheduled == 1.0
        assert ts.staging_time == pytest.approx(3.0)
        assert ts.started - ts.dispatched == pytest.approx(1.0)
        assert ts.completed - ts.started == pytest.approx(3.0)
        assert graph.counts() == {"completed": 1}

    def test_counts_only_nonzero_states(self):
        graph, _ = chain_graph(3)
        assert graph.counts() == {"ready": 1, "pending": 2}


class TestDependencies:
    def test_edges_are_kept_once_as_predecessor_lists(self):
        # The authoring id set is dropped at insertion; every reader of the
        # in-edges goes through the predecessor list alone.
        graph = TaskGraph()
        a = graph.add_task(make_task())
        b = graph.add_task(make_task(deps=[a.task_id]))
        assert a._dependencies is None and b._dependencies is None
        assert b.dependencies == {a.task_id}
        assert graph.predecessors(b.task_id) == [a]
        assert graph.critical_path_length() == 2.0
        assert graph.dfs_order() == [a, b]


class TestInsertionFrames:
    def test_a_task_is_born_into_its_store_row(self):
        # No detached copy of the store-owned fields: building a task and
        # inserting it enters no timestamps object and no attach step.
        graph = TaskGraph()
        frames = python_frames(lambda: graph.add_task(Task(function=noop)))
        assert frames == ["__init__", "_next_task_id", "__init__", "add_task", "cores",
                          "files_size_mb", "<genexpr>", "add"]


class TestAnalysis:
    def test_roots(self):
        graph, tasks = chain_graph(3)
        assert graph.roots() == [tasks[0]]

    def test_topological_order_respects_dependencies(self):
        graph = TaskGraph()
        a = graph.add_task(make_task())
        b = graph.add_task(make_task(deps=[a.task_id]))
        c = graph.add_task(make_task(deps=[a.task_id]))
        d = graph.add_task(make_task(deps=[b.task_id, c.task_id]))
        order = [t.task_id for t in graph.topological_order()]
        assert order.index(a.task_id) < order.index(b.task_id)
        assert order.index(a.task_id) < order.index(c.task_id)
        assert order.index(d.task_id) == 3

    def test_dfs_order_is_topological_and_complete(self):
        graph = TaskGraph()
        a = graph.add_task(make_task())
        b = graph.add_task(make_task(deps=[a.task_id]))
        c = graph.add_task(make_task(deps=[a.task_id]))
        d = graph.add_task(make_task(deps=[b.task_id]))
        order = graph.dfs_order()
        ids = [t.task_id for t in order]
        assert set(ids) == {task.task_id for task in graph}
        positions = {tid: i for i, tid in enumerate(ids)}
        for task in graph:
            for dep in task.dependencies:
                assert positions[dep] < positions[task.task_id]
        # DFS keeps the a->b->d path contiguous before visiting c.
        assert ids.index(d.task_id) < ids.index(c.task_id)

    def test_critical_path_length_unit_weights(self):
        graph, _ = chain_graph(4)
        assert graph.critical_path_length() == 4.0

    def test_critical_path_length_custom_weights(self):
        graph = TaskGraph()
        a = graph.add_task(make_task())
        b = graph.add_task(make_task(deps=[a.task_id]))
        c = graph.add_task(make_task(deps=[a.task_id]))
        weights = {a.task_id: 1.0, b.task_id: 10.0, c.task_id: 2.0}
        assert graph.critical_path_length(lambda t: weights[t.task_id]) == 11.0

    def test_successors_predecessors(self):
        graph, tasks = chain_graph(3)
        assert graph.successors(tasks[0].task_id) == [tasks[1]]
        assert graph.predecessors(tasks[1].task_id) == [tasks[0]]


class TestGraphProperties:
    @given(st.integers(min_value=1, max_value=40), st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_dag_completion_releases_everything(self, n, data):
        """Completing tasks in topological order eventually readies every task."""
        graph = TaskGraph()
        created = []
        for i in range(n):
            if created:
                k = data.draw(st.integers(min_value=0, max_value=min(3, len(created))))
                deps = data.draw(
                    st.lists(
                        st.sampled_from([t.task_id for t in created]),
                        min_size=k,
                        max_size=k,
                        unique=True,
                    )
                )
            else:
                deps = []
            created.append(graph.add_task(make_task(deps=deps)))

        # Invariant: counts always sum to the number of tasks.
        assert sum(graph.state_count(s) for s in TaskState) == n

        for task in graph.topological_order():
            graph.mark_completed(task)
        assert graph.is_complete()
        assert graph.state_count(TaskState.COMPLETED) == n

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_chain_critical_path_equals_length(self, n):
        graph, _ = chain_graph(n)
        assert graph.critical_path_length() == float(n)


# Explicit ids whose arrival order differs from their sort order: plain and
# workflow-namespaced ("wf1/task-00000007" sorts before "wf2/task-00000001").
EXPLICIT_IDS = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=999).map(lambda k: f"task-{k:08d}"),
        st.tuples(st.integers(0, 3), st.integers(0, 99)).map(
            lambda p: f"wf{p[0]}/task-{p[1]:08d}"
        ),
    ),
    min_size=1,
    max_size=25,
    unique=True,
)


def _reference_topological(ids, succ, pred):
    """Kahn's algorithm over id sets, ``sorted()`` wherever order matters."""
    in_degree = {i: len(pred[i]) for i in ids}
    queue = sorted(i for i in ids if in_degree[i] == 0)
    head = 0
    while head < len(queue):
        for s in sorted(succ[queue[head]]):
            in_degree[s] -= 1
            if in_degree[s] == 0:
                queue.append(s)
        head += 1
    return queue


def _reference_dfs(ids, succ, pred):
    visited, order = set(), []
    for root in sorted(i for i in ids if not pred[i]):
        stack = [root]
        while stack:
            node = stack.pop()
            if node in visited or any(p not in visited for p in pred[node]):
                continue
            visited.add(node)
            order.append(node)
            stack.extend(sorted(succ[node], reverse=True))
    return order + [i for i in _reference_topological(ids, succ, pred) if i not in visited]


class TestAdjacencyOrder:
    """Adjacency lists are kept in task-id order by construction: exactly the
    order a ``sorted()`` over id sets gives, whatever order ids arrive in."""

    @given(EXPLICIT_IDS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_and_traversals_follow_sorted_ids(self, ids, data):
        graph = TaskGraph()
        succ = {i: set() for i in ids}
        pred = {i: set() for i in ids}
        tasks = {}
        for position, task_id in enumerate(ids):
            earlier = ids[:position]
            deps = data.draw(st.sets(st.sampled_from(earlier), max_size=3)) if earlier else set()
            tasks[task_id] = graph.add_task(make_task(deps=deps, task_id=task_id))
            for dep in deps:
                succ[dep].add(task_id)
                pred[task_id].add(dep)
        for task_id in ids:
            assert graph.successors(task_id) == [tasks[s] for s in sorted(succ[task_id])]
            assert graph.predecessors(task_id) == [tasks[p] for p in sorted(pred[task_id])]
        expected_topo = _reference_topological(ids, succ, pred)
        assert [t.task_id for t in graph.topological_order()] == expected_topo
        assert [t.task_id for t in graph.dfs_order()] == _reference_dfs(ids, succ, pred)

        # Completing in topological order releases each successor whose
        # last predecessor just finished, in task-id order.
        completed = set()
        for task_id in expected_topo:
            completed.add(task_id)
            released = [
                s for s in sorted(succ[task_id]) if pred[s] <= completed and s not in completed
            ]
            assert graph.mark_completed(tasks[task_id]) == [tasks[s] for s in released]
        assert graph.is_complete()
