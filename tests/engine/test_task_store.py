"""Unit tests for the columnar TaskStore and its Task-view integration."""

import pytest

from repro.core.dag import Task, TaskGraph, TaskState
from repro.core.functions import FederatedFunction
from repro.engine.store import TaskStore


def make_store():
    return TaskStore()


def add(store, task_id, state=TaskState.PENDING, cores=1, endpoint=None, priority=0.0):
    return store.add(
        task_id,
        state=state,
        cores=cores,
        input_mb=0.0,
        priority=priority,
        endpoint=endpoint,
    )


class TestStateAccounting:
    def test_counts_follow_transitions(self):
        store = make_store()
        row = add(store, "t1")
        assert store.state_count(TaskState.PENDING) == 1
        store.set_state(row, TaskState.READY)
        store.set_state(row, TaskState.COMPLETED)
        assert store.state_count(TaskState.PENDING) == 0
        assert store.state_count(TaskState.READY) == 0
        assert store.counts() == {TaskState.COMPLETED.value: 1}
        assert store.terminal == 1

    def test_rows_in_states_is_insertion_ordered(self):
        store = make_store()
        rows = [add(store, f"t{i}") for i in range(5)]
        store.set_state(rows[1], TaskState.READY)
        store.set_state(rows[3], TaskState.READY)
        store.set_state(rows[4], TaskState.FAILED)
        assert store.rows_in_states(TaskState.READY).tolist() == [rows[1], rows[3]]
        assert store.rows_in_states(TaskState.READY, TaskState.FAILED).tolist() == [
            rows[1],
            rows[3],
            rows[4],
        ]

    def test_growth_beyond_the_quantum_preserves_rows(self):
        store = make_store()
        n = 3000  # > initial capacity, forces at least one grow
        for i in range(n):
            row = add(store, f"t{i}", cores=i % 4 + 1)
            store.set_timestamp(row, "created", float(i))
        assert len(store) == n
        assert store.row_of("t2999") == 2999
        assert store.task_id_of(17) == "t17"
        assert store.get_timestamp(1500, "created") == 1500.0
        assert int(store.cores[2999]) == (2999 % 4) + 1


class TestEndpointAggregates:
    def test_staged_demand_tracks_cores(self):
        store = make_store()
        a = add(store, "a", cores=2, endpoint="ep1")
        b = add(store, "b", cores=3, endpoint="ep1")
        add(store, "c", cores=5, endpoint="ep2")
        assert store.staged_demand() == {}
        store.set_state(a, TaskState.STAGED)
        store.set_state(b, TaskState.STAGED)
        assert store.staged_demand() == {"ep1": 5}
        store.set_state(a, TaskState.DISPATCHED)
        assert store.staged_demand() == {"ep1": 3}
        # Re-placement moves the staged cores with the task.
        store.set_endpoint(b, "ep2")
        assert store.staged_demand() == {"ep2": 3}

    def test_undispatched_spans_the_scheduled_to_staged_band(self):
        store = make_store()
        a = add(store, "a", endpoint="ep1", state=TaskState.SCHEDULED)
        b = add(store, "b", endpoint="ep1")
        assert store.undispatched_by_endpoint() == {"ep1": 1}
        store.set_state(b, TaskState.STAGING)
        assert store.undispatched_by_endpoint() == {"ep1": 2}
        assert store.undispatched_count == 2
        store.set_state(a, TaskState.DISPATCHED)
        store.set_state(b, TaskState.STAGED)
        assert store.undispatched_by_endpoint() == {"ep1": 1}
        store.set_endpoint(b, None)
        assert store.undispatched_by_endpoint() == {}
        assert store.undispatched_count == 0


class TestTimestamps:
    def test_nan_is_none(self):
        store = make_store()
        row = add(store, "t")
        assert store.get_timestamp(row, "ready") is None
        store.set_timestamp(row, "ready", 4.25)
        value = store.get_timestamp(row, "ready")
        assert value == 4.25 and type(value) is float
        store.set_timestamp(row, "ready", None)
        assert store.get_timestamp(row, "ready") is None

    def test_wait_values_need_both_stamps(self):
        store = make_store()
        a = add(store, "a")
        b = add(store, "b")
        c = add(store, "c")
        store.set_timestamp(a, "ready", 1.0)
        store.set_timestamp(a, "started", 3.5)
        store.set_timestamp(b, "ready", 2.0)  # never started
        store.set_timestamp(c, "ready", 9.0)
        store.set_timestamp(c, "started", 8.0)  # clock skew clamps to 0
        assert store.wait_times() == [2.5, 0.0]


class TestTaskViews:
    def test_task_writes_mirror_into_the_graph_store(self):
        graph = TaskGraph()
        task = Task(function=FederatedFunction(lambda: None, name="fn"))
        graph.add_task(task)
        row = graph.store.row_of(task.task_id)

        task.state = TaskState.READY
        assert TaskState(graph.store.counts()["ready"] and task.state) == TaskState.READY
        assert graph.store.rows_in_states(TaskState.READY).tolist() == [row]

        task.assigned_endpoint = "ep9"
        task.state = TaskState.STAGED
        assert graph.store.staged_demand() == {"ep9": task.cores}

        task.timestamps.ready = 5.0
        assert graph.store.get_timestamp(row, "ready") == 5.0
        assert task.timestamps.ready == 5.0

        task.priority = 7.5
        assert graph.store.priority[row] == 7.5

    def test_graph_queries_delegate_to_the_store(self):
        graph = TaskGraph()
        tasks = [
            Task(function=FederatedFunction(lambda: None, name=f"fn{i}"))
            for i in range(4)
        ]
        for t in tasks:
            graph.add_task(t)
        assert graph.state_count(TaskState.READY) == len(tasks)  # no deps: born ready
        for t in tasks:
            t.state = TaskState.COMPLETED
        assert graph.is_complete()
        assert graph.unfinished_count() == 0

    def test_detached_task_keeps_local_timestamps(self):
        task = Task(function=FederatedFunction(lambda: None, name="fn"))
        task.timestamps.created = 1.0
        assert task.timestamps.created == 1.0
        assert task.timestamps.started is None


class TestInternment:
    def test_endpoint_interning_is_stable(self):
        store = make_store()
        assert store.intern_endpoint("a") == 0
        assert store.intern_endpoint("b") == 1
        assert store.intern_endpoint("a") == 0

    def test_duplicate_add_rejected_by_row_map(self):
        store = make_store()
        add(store, "t")
        with pytest.raises(KeyError):
            store.row_of("missing")
