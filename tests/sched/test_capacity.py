"""Tests for the Capacity scheduler."""

from collections import Counter

import pytest

from repro.sched.capacity import CapacityScheduler

from tests.sched.conftest import EndpointSpec, add_task, build_context


def build(endpoints):
    bundle = build_context(endpoints)
    scheduler = CapacityScheduler()
    scheduler.initialize(bundle.context)
    return bundle, scheduler


class TestPartitioning:
    def test_proportional_to_capacity(self):
        # Fig. 2: EPs with 5, 2 and 1 workers get 5, 2 and 1 of 8 tasks.
        bundle, scheduler = build(
            {
                "ep1": EndpointSpec(workers=5),
                "ep2": EndpointSpec(workers=2),
                "ep3": EndpointSpec(workers=1),
            }
        )
        tasks = [add_task(bundle.graph) for _ in range(8)]
        scheduler.on_workflow_submitted(tasks)
        counts = Counter(scheduler._assignment.values())
        assert counts == {"ep1": 5, "ep2": 2, "ep3": 1}

    def test_all_tasks_assigned_despite_rounding(self):
        bundle, scheduler = build(
            {"a": EndpointSpec(workers=3), "b": EndpointSpec(workers=3), "c": EndpointSpec(workers=3)}
        )
        tasks = [add_task(bundle.graph) for _ in range(10)]
        scheduler.on_workflow_submitted(tasks)
        assert len(scheduler._assignment) == 10

    def test_dfs_keeps_paths_together(self):
        # A chain should stay on one endpoint (data locality along the path).
        bundle, scheduler = build({"big": EndpointSpec(workers=8), "small": EndpointSpec(workers=2)})
        root = add_task(bundle.graph)
        a = add_task(bundle.graph, deps=[root])
        b = add_task(bundle.graph, deps=[a])
        other_root = add_task(bundle.graph)
        scheduler.on_workflow_submitted([root, a, b, other_root])
        assignment = scheduler._assignment
        chain_endpoints = {assignment[root.task_id], assignment[a.task_id], assignment[b.task_id]}
        assert len(chain_endpoints) == 1

    def test_schedule_returns_offline_assignment(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=4), "b": EndpointSpec(workers=4)})
        tasks = [add_task(bundle.graph) for _ in range(4)]
        scheduler.on_workflow_submitted(tasks)
        placements = scheduler.schedule(tasks)
        assert len(placements) == 4
        assignment = scheduler._assignment
        assert all(p.endpoint == assignment[p.task_id] for p in placements)

    def test_unseen_ready_tasks_partitioned_on_demand(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=4)})
        task = add_task(bundle.graph)
        placements = scheduler.schedule([task])
        assert len(placements) == 1
        assert placements[0].endpoint == "a"

    def test_dynamic_additions_partitioned(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=2), "b": EndpointSpec(workers=2)})
        first = [add_task(bundle.graph) for _ in range(4)]
        scheduler.on_workflow_submitted(first)
        more = [add_task(bundle.graph) for _ in range(4)]
        scheduler.on_tasks_added(more)
        assert len(scheduler._assignment) == 8

    def test_no_delay_no_reschedule(self):
        _, scheduler = build({"a": EndpointSpec()})
        assert not scheduler.uses_delay_mechanism
        assert not scheduler.supports_rescheduling
        assert scheduler.reschedule([]) == []

    def test_uninitialized_scheduler_raises(self):
        scheduler = CapacityScheduler()
        with pytest.raises(RuntimeError):
            scheduler.schedule([])
