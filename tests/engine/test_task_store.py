"""Unit tests for the columnar TaskStore and its Task-view integration."""

import numpy as np
import pytest

from repro.core.dag import STATE_CODES, Task, TaskGraph, TaskState
from repro.core.exceptions import WorkflowError
from repro.core.functions import FederatedFunction
from repro.engine.store import TaskStore


def make_store():
    return TaskStore()


def add(store, state=TaskState.PENDING, cores=1, endpoint=None, now=0.0):
    """A row in ``state``: inserted READY or PENDING (what a new row can be)
    at ``now``, then moved there."""
    row = store.add(ready=state is TaskState.READY, now=now, cores=cores, input_mb=0.0,
                    endpoint=endpoint)
    if state not in (TaskState.PENDING, TaskState.READY):
        store.set_state(row, state)
    return row


class TestStateAccounting:
    def test_counts_follow_transitions(self):
        store = make_store()
        row = add(store)
        assert store.state_count(TaskState.PENDING) == 1
        store.set_state(row, TaskState.READY)
        store.set_state(row, TaskState.COMPLETED)
        assert store.state_count(TaskState.PENDING) == 0
        assert store.state_count(TaskState.READY) == 0
        assert store.counts() == {TaskState.COMPLETED.value: 1}
        assert store.terminal == 1

    def test_rows_in_states_is_insertion_ordered(self):
        store = make_store()
        rows = [add(store) for _ in range(5)]
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
        rows = [add(store, cores=i % 4 + 1, now=float(i)) for i in range(n)]
        assert len(store) == n
        assert rows == list(range(n))
        assert store.timestamps["created"][1500] == 1500.0
        assert int(store.cores[2999]) == (2999 % 4) + 1

    def test_a_new_row_is_ready_or_pending(self):
        store = make_store()
        ready = add(store, state=TaskState.READY, endpoint="ep1", now=1.5)
        pending = add(store, endpoint="ep1", now=2.5)
        assert store.counts() == {"pending": 1, "ready": 1}
        assert [store.timestamps["created"][row] for row in (ready, pending)] == [1.5, 2.5]
        assert store.timestamps["ready"][ready] == 1.5
        assert np.isnan(store.timestamps["ready"][pending])
        assert store.endpoint_names[store.endpoint[pending]] == "ep1"
        # Neither awaits dispatch nor is terminal: no aggregate moved.
        assert store.pending_dispatch == {} and store.undispatched_count == 0
        assert store.terminal == 0 and store.pending_version == 0


class TestEndpointAggregates:
    def test_staged_cores_follow_state_and_endpoint(self):
        store = make_store()
        a = add(store, cores=2, endpoint="ep1")
        b = add(store, cores=3, endpoint="ep1")
        add(store, cores=5, endpoint="ep2")
        assert store.staged_cores == {}
        store.set_state(a, TaskState.STAGED)
        store.set_state(b, TaskState.STAGED)
        assert store.staged_cores == {"ep1": 5}
        store.set_state(a, TaskState.DISPATCHED)
        assert store.staged_cores == {"ep1": 3}
        # Re-placement moves the staged cores with the task.
        store.set_endpoint(b, "ep2")
        assert store.staged_cores == {"ep2": 3}

    def test_undispatched_spans_the_scheduled_to_staged_band(self):
        store = make_store()
        a = add(store, endpoint="ep1", state=TaskState.SCHEDULED)
        b = add(store, endpoint="ep1")
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


    def test_only_pending_dispatch_transitions_touch_the_aggregates(self, monkeypatch):
        store = make_store()
        row = add(store, endpoint="ep1", state=TaskState.READY)
        accounted = []
        account = store._account
        monkeypatch.setattr(
            store, "_account", lambda *args: accounted.append(args[1:3]) or account(*args)
        )
        store.set_endpoint(row, "ep2")  # READY: nothing awaits dispatch yet
        for state in (TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED,
                      TaskState.DISPATCHED, TaskState.COMPLETED):
            store.set_state(row, state)
        codes = STATE_CODES
        assert accounted == [
            (codes[TaskState.READY], codes[TaskState.SCHEDULED]),
            (codes[TaskState.SCHEDULED], codes[TaskState.STAGING]),
            (codes[TaskState.STAGING], codes[TaskState.STAGED]),
            (codes[TaskState.STAGED], codes[TaskState.DISPATCHED]),
        ]
        assert store.undispatched_count == 0 and store.staged_cores == {}


class TestSharedPending:
    """``share_pending``: the serving layer's federation-wide claim sum."""

    def test_join_adds_leave_subtracts_and_rejoin_does_not_count_twice(self):
        store = make_store()
        a, b = add(store, endpoint="a"), add(store, endpoint="b")
        store.set_state(a, TaskState.SCHEDULED)
        totals = {"a": 5}  # another tenant's placed-but-undispatched tasks
        store.share_pending(totals)  # join: the counts held now are added
        assert totals == {"a": 6}
        store.set_state(b, TaskState.STAGED)  # later changes write through
        store.set_endpoint(a, "b")
        assert totals == {"a": 5, "b": 2}
        store.share_pending(totals)  # joining again (a restore) is a no-op
        assert totals == {"a": 5, "b": 2}
        store.share_pending(None)  # leave: taken out again
        assert totals == {"a": 5, "b": 0}
        store.set_state(a, TaskState.DISPATCHED)  # no longer written through
        assert totals == {"a": 5, "b": 0}
        store.share_pending(totals)
        assert totals == {"a": 5, "b": 1}
        assert store.pending_on("b") == 1 and store.pending_on("a") == 0

    def test_a_row_awaiting_dispatch_moves_the_pending_version(self):
        store = make_store()
        version = store.pending_version
        row = add(store, endpoint="a", state=TaskState.READY)
        assert store.pending_version == version  # a new row awaits no dispatch
        store.set_state(row, TaskState.STAGED)
        assert store.pending_version == version + 1
        assert store.pending_on("a") == 1


class TestTimestamps:
    def test_set_state_stamps_its_transition(self):
        store = make_store()
        row = add(store)
        store.set_state(row, TaskState.READY, 1.5)
        store.set_state(row, TaskState.STAGED)  # no ``now``: no stamp
        store.set_state(row, TaskState.STAGED, 2.5)  # same state: still stamps
        store.set_state(row, TaskState.FAILED, 4.0)
        assert store.timestamps["ready"][row] == 1.5
        assert store.timestamps["staging_done"][row] == 2.5
        assert store.timestamps["completed"][row] == 4.0
        store.set_state(row, TaskState.PENDING, 5.0)  # PENDING stamps nothing
        assert [store.timestamps[name][row] for name in ("ready", "completed")] == [1.5, 4.0]

    def test_nan_is_none(self):
        graph = TaskGraph()
        task = graph.add_task(Task(function=FederatedFunction(lambda: None, name="fn")))
        stamps = task.timestamps
        assert stamps.scheduled is None
        stamps.scheduled = 4.25
        assert stamps.scheduled == 4.25 and type(stamps.scheduled) is float
        assert graph.store.timestamps["scheduled"][task._row] == 4.25
        stamps.scheduled = None
        assert stamps.scheduled is None

    def test_wait_values_need_both_stamps(self):
        store = make_store()
        for ready, started in ((1.0, 3.5), (2.0, None), (9.0, 8.0)):
            row = add(store, state=TaskState.READY, now=ready)
            if started is not None:  # the second never started
                store.set_state(row, TaskState.RUNNING, started)
        # The third's clock skew clamps to 0.
        assert store.wait_values().tolist() == [2.5, 0.0]


class TestTaskViews:
    def test_task_writes_mirror_into_the_graph_store(self):
        graph = TaskGraph()
        task = Task(function=FederatedFunction(lambda: None, name="fn"))
        graph.add_task(task)
        row = task._row

        task.state = TaskState.READY
        assert TaskState(graph.store.counts()["ready"] and task.state) == TaskState.READY
        assert graph.store.rows_in_states(TaskState.READY).tolist() == [row]

        task.assigned_endpoint = "ep9"
        task.state = TaskState.STAGED
        assert graph.store.staged_cores == {"ep9": task.cores}

        task.timestamps.ready = 5.0
        assert graph.store.timestamps["ready"][row] == 5.0
        assert task.timestamps.ready == 5.0

        task.priority = 7.5
        assert graph.store.priority[row] == 7.5
        assert task.priority == 7.5 and task.assigned_endpoint == "ep9"
        # The store row is the one copy: the task keeps none of its own.
        assert not {"state", "assigned_endpoint", "priority", "timestamps"} & set(vars(task))

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

    def test_graph_state_changes_keep_the_ownership_check(self):
        graph, other = TaskGraph(), TaskGraph()
        task = graph.add_task(Task(function=FederatedFunction(lambda: None, name="fn")))
        stranger = other.add_task(Task(function=FederatedFunction(lambda: None, name="fn")))
        assert graph.find(task.task_id) is task
        assert graph.find(stranger.task_id) is None
        with pytest.raises(WorkflowError):
            graph.set_state(stranger, TaskState.SCHEDULED, now=1.0)
        with pytest.raises(WorkflowError):
            graph.mark_completed(stranger, now=1.0)
        assert stranger.state == TaskState.READY
        graph.set_state(task, TaskState.SCHEDULED, now=1.0)
        assert task.timestamps.scheduled == 1.0
        assert graph.mark_completed(task, now=2.0) == []
        assert task.timestamps.completed == 2.0


class TestInternment:
    def test_endpoint_interning_is_stable(self):
        store = make_store()
        assert store.intern_endpoint("a") == 0
        assert store.intern_endpoint("b") == 1
        assert store.intern_endpoint("a") == 0

    def test_duplicate_add_rejected_by_row_map(self):
        graph = TaskGraph()
        task = graph.add_task(Task(function=FederatedFunction(lambda: None, name="fn")))
        with pytest.raises(WorkflowError):
            graph.add_task(task)
        assert len(graph.store) == 1
