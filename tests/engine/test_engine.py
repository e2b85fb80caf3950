"""Engine internals: indexed state and invalidation (the run loop's stall
ladder and idle-round skip live in ``tests/serving/test_run_loop.py``)."""

import pytest

from repro.core.dag import Task, TaskGraph, TaskState
from repro.core.functions import SimProfile, function
from repro.engine.state import TaskIndex
from repro.engine.store import TaskStore

from tests.integration.conftest import build_two_site_env


@function(sim_profile=SimProfile(base_time_s=1.0, output_base_mb=1.0))
def engine_work(data=None):
    return None


class TestTaskIndex:
    def test_queue_preserves_arrival_order(self):
        index = TaskIndex(TaskStore())
        tasks = [Task(function=engine_work) for _ in range(3)]
        for task in tasks:
            index.enqueue(task)
        index.enqueue(tasks[0])  # idempotent
        assert index.queued_tasks() == tasks
        index.remove_queued(tasks[1].task_id)
        assert index.queued_tasks() == [tasks[0], tasks[2]]
        assert index.queued_count == 2

    def test_undispatched_counts_track_moves(self):
        # The index keeps the placement order; the counts are the aggregates
        # of the graph's store, which follow task state and endpoint.
        graph = TaskGraph()
        index = TaskIndex(graph.store)
        t1, t2, t3 = tasks = [Task(function=engine_work) for _ in range(3)]
        for task in tasks:
            graph.add_task(task, now=0.0)

        def place(task, endpoint):  # StagingCoordinator.begin_staging
            task.assigned_endpoint = endpoint
            graph.set_state(task.task_id, TaskState.SCHEDULED, now=0.0)
            index.mark_undispatched(task.task_id)

        def dispatch(task):  # DispatchCoordinator.dispatch
            graph.set_state(task.task_id, TaskState.DISPATCHED, now=0.0)
            index.clear_undispatched(task.task_id)

        place(t1, "a")
        place(t2, "a")
        place(t3, "b")
        assert index.undispatched_by_endpoint() == {"a": 2, "b": 1}
        epoch = index.undispatched_epoch
        # A re-scheduling move shifts the count, O(1), and keeps t1's place
        # in the order: the membership (the epoch) did not change.
        place(t1, "b")
        assert index.undispatched_by_endpoint() == {"a": 1, "b": 2}
        assert index.undispatched_epoch == epoch
        assert index.undispatched_ids() == [t.task_id for t in tasks]
        dispatch(t2)
        dispatch(t3)
        assert index.undispatched_by_endpoint() == {"b": 1}
        assert index.undispatched_ids() == [t1.task_id]
        assert index.undispatched_count == 1
        assert index.undispatched_epoch == epoch + 2

    def test_clear_unknown_task_is_a_noop(self):
        index = TaskIndex(TaskStore())
        index.clear_undispatched("missing")
        assert index.undispatched_count == 0
        assert index.undispatched_epoch == 0


class TestInputEstimate:
    def test_input_estimate_tracks_parent_completion_through_engine(self):
        # End-to-end: once the parent completes, the child's estimated input
        # must reflect the real output file, not a stale cached estimate.
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        with client:
            root = engine_work()
            child = engine_work(root)
            client.run()
        child_task = client.graph.get(child.task_id)
        context = client.engine.context
        assert context.estimated_input_mb(child_task) == pytest.approx(1.0)


class TestStagingCounter:
    def test_active_staging_tasks_matches_ticket_scan_mid_run(self):
        env = build_two_site_env(bandwidth=20.0)  # slow links: staging overlaps
        client = env.make_client(env.make_config("DHA"))
        manager = client.data_manager
        samples = []

        def scan():
            return sum(1 for t in manager._tickets.values() if not t.done)

        # Sampled every time a ticket completes — i.e. mid-run, while other
        # tickets are still open — so counter drift cannot hide behind the
        # trivially-zero end state.
        manager.add_staged_callback(lambda t: samples.append((manager.active_staging_tasks(), scan())))
        with client:
            root = engine_work(unifaas_endpoint="site_a")
            # Half the children pinned off the root's site so their shared
            # input really has to move: several tickets stay open at once.
            [engine_work(root, unifaas_endpoint="site_b") for _ in range(4)]
            [engine_work(root) for _ in range(4)]
            client.run()
        assert samples
        assert all(counter == scanned for counter, scanned in samples), samples
        # The workload must actually have produced overlapping staging work.
        assert max(counter for counter, _ in samples) > 0
        assert manager.active_staging_tasks() == scan() == 0
