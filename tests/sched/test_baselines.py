"""Tests for the HEFT and round-robin baseline schedulers and the registry."""

import pytest

from repro.sched import create_scheduler
from repro.sched.capacity import CapacityScheduler
from repro.sched.dha import DHAScheduler
from repro.sched.heft import HEFTScheduler
from repro.sched.locality import LocalityScheduler
from repro.sched.roundrobin import RoundRobinScheduler

from tests.sched.conftest import EndpointSpec, add_task, build_context


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("CAPACITY", CapacityScheduler),
            ("locality", LocalityScheduler),
            ("Dha", DHAScheduler),
            ("HEFT", HEFTScheduler),
            ("round_robin", RoundRobinScheduler),
        ],
    )
    def test_create_by_name(self, name, cls):
        assert isinstance(create_scheduler(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_scheduler("magic")

    def test_kwargs_forwarded(self):
        scheduler = create_scheduler("DHA", enable_rescheduling=False)
        assert not scheduler.supports_rescheduling


class TestRoundRobin:
    def test_even_rotation(self):
        bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
        scheduler = RoundRobinScheduler()
        scheduler.initialize(bundle.context)
        tasks = [add_task(bundle.graph) for _ in range(4)]
        placements = scheduler.schedule(tasks)
        assert [p.endpoint for p in placements] == ["a", "b", "a", "b"]

    def test_rotation_continues_across_calls(self):
        bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
        scheduler = RoundRobinScheduler()
        scheduler.initialize(bundle.context)
        first = scheduler.schedule([add_task(bundle.graph)])
        second = scheduler.schedule([add_task(bundle.graph)])
        assert first[0].endpoint != second[0].endpoint


class TestHEFT:
    def test_ranks_decrease_downstream(self):
        bundle = build_context({"a": EndpointSpec()})
        scheduler = HEFTScheduler()
        scheduler.initialize(bundle.context)
        t1 = add_task(bundle.graph)
        t2 = add_task(bundle.graph, deps=[t1])
        scheduler.on_workflow_submitted([t1, t2])
        assert scheduler.rank(t1.task_id) > scheduler.rank(t2.task_id)

    def test_all_tasks_assigned_offline(self):
        bundle = build_context({"a": EndpointSpec(workers=2), "b": EndpointSpec(workers=4)})
        scheduler = HEFTScheduler()
        scheduler.initialize(bundle.context)
        tasks = [add_task(bundle.graph) for _ in range(6)]
        scheduler.on_workflow_submitted(tasks)
        assert set(scheduler._assignment) == {t.task_id for t in tasks}
        placements = scheduler.schedule(tasks)
        assert len(placements) == 6

    def test_prefers_faster_endpoint_for_critical_tasks(self):
        bundle = build_context(
            {"slow": EndpointSpec(workers=4, speed=1.0), "fast": EndpointSpec(workers=4, speed=2.0)}
        )
        scheduler = HEFTScheduler()
        scheduler.initialize(bundle.context)
        task = add_task(bundle.graph)
        scheduler.on_workflow_submitted([task])
        assert scheduler._assignment[task.task_id] == "fast"

    def test_unseen_tasks_planned_on_demand(self):
        bundle = build_context({"a": EndpointSpec()})
        scheduler = HEFTScheduler()
        scheduler.initialize(bundle.context)
        task = add_task(bundle.graph)
        placements = scheduler.schedule([task])
        assert placements[0].endpoint == "a"
