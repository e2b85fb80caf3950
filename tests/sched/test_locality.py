"""Tests for the Locality scheduler."""

from repro.core.dag import TaskState
from repro.sched.locality import LocalityScheduler

from tests.sched.conftest import EndpointSpec, add_task, build_context, input_file, place


def build(endpoints):
    bundle = build_context(endpoints)
    scheduler = LocalityScheduler()
    scheduler.initialize(bundle.context)
    return bundle, scheduler


class TestLocalitySelection:
    def test_prefers_endpoint_holding_the_data(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=4), "b": EndpointSpec(workers=4)})
        task = add_task(bundle.graph, input_files=[input_file(100.0, "b")])
        placements = scheduler.schedule([task])
        assert placements[0].endpoint == "b"

    def test_weighs_data_volume_across_endpoints(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=4), "b": EndpointSpec(workers=4)})
        # 300 MB already on a, 100 MB on b: running on a moves less data.
        task = add_task(
            bundle.graph,
            input_files=[input_file(300.0, "a"), input_file(100.0, "b")],
        )
        placements = scheduler.schedule([task])
        assert placements[0].endpoint == "a"

    def test_only_assigns_when_capacity_available(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=0), "b": EndpointSpec(workers=0)})
        task = add_task(bundle.graph)
        assert scheduler.schedule([task]) == []

    def test_does_not_overcommit_capacity(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=2)})
        tasks = [add_task(bundle.graph) for _ in range(5)]
        placements = scheduler.schedule(tasks)
        # Only two idle workers -> only two tasks placed this round.
        assert len(placements) == 2
        for p in placements:
            place(bundle.graph, bundle.graph.get(p.task_id), p.endpoint)
        # Placed but not dispatched: both workers are claimed.
        assert scheduler.unclaimed_free_capacity("a") == 0
        assert scheduler.schedule(tasks[2:]) == []
        # Dispatch releases the claims, but the workers are now busy.
        for p in placements:
            bundle.graph.set_state(bundle.graph.get(p.task_id), TaskState.DISPATCHED)
            bundle.monitor.record_dispatch(p.endpoint)
        assert scheduler.claimed("a") == 0
        more = scheduler.schedule(tasks[2:])
        assert len(more) == 0  # workers are now busy in the mocked view

    def test_tie_break_prefers_freer_endpoint(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=1), "b": EndpointSpec(workers=8)})
        # No input data: both endpoints move 0 bytes; pick the one with more
        # idle workers.
        task = add_task(bundle.graph)
        placements = scheduler.schedule([task])
        assert placements[0].endpoint == "b"

    def test_no_knowledge_required(self):
        # Locality should work with empty profilers and no offline pass.
        bundle, scheduler = build({"a": EndpointSpec(workers=1)})
        task = add_task(bundle.graph, input_files=[input_file(10.0, "a")])
        assert scheduler.schedule([task])[0].endpoint == "a"
        assert not scheduler.uses_delay_mechanism
        assert not scheduler.supports_rescheduling
