"""EventBus semantics: ordering, cascades, run-to-run determinism, and the
event log the bus writes."""

import sys
from pathlib import Path

import pytest

from repro.core.dag import Task
from repro.core.functions import SimProfile, function
from repro.engine.bus import EventBus
from repro.engine.events import (
    CapacityChanged,
    EndpointCrashed,
    TaskEvent,
    TaskPlaced,
    TaskReady,
    TasksDispatched,
    expand_event,
)

from tests.frames import python_frames
from tests.integration.conftest import build_two_site_env


class TestSubscriptionOrdering:
    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(CapacityChanged, lambda e: calls.append("first"))
        bus.subscribe(CapacityChanged, lambda e: calls.append("second"))
        bus.subscribe(CapacityChanged, lambda e: calls.append("third"))
        bus.publish(CapacityChanged(time=0.0))
        assert calls == ["first", "second", "third"]

    def test_subscribe_all_runs_before_typed_handlers(self):
        bus = EventBus()
        calls = []
        bus.subscribe(CapacityChanged, lambda e: calls.append("typed"))
        bus.subscribe_all(lambda e: calls.append("all"))
        bus.publish(CapacityChanged(time=0.0))
        assert calls == ["all", "typed"]

    def test_handlers_only_receive_their_exact_type(self):
        bus = EventBus()
        calls = []
        bus.subscribe(CapacityChanged, lambda e: calls.append(type(e).__name__))
        bus.publish(CapacityChanged(time=0.0))
        assert calls == ["CapacityChanged"]

    def test_unsubscribe(self):
        bus = EventBus()
        calls = []
        handler = bus.subscribe(CapacityChanged, lambda e: calls.append(1))
        assert bus.unsubscribe(CapacityChanged, handler)
        assert not bus.unsubscribe(CapacityChanged, handler)
        bus.publish(CapacityChanged(time=0.0))
        assert calls == []

    def test_subscribe_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda e: None)


class TestCascades:
    def test_nested_publish_is_fifo_not_recursive(self):
        bus = EventBus()
        order = []

        def first(event):
            order.append("outer-first")
            if event.time == 0.0:
                bus.publish(CapacityChanged(time=1.0))
            order.append("outer-after-publish")

        def second(event):
            order.append(f"outer-second@{event.time}")

        bus.subscribe(CapacityChanged, first)
        bus.subscribe(CapacityChanged, second)
        bus.publish(CapacityChanged(time=0.0))
        # The nested event is delivered only after every handler of the
        # in-flight event ran — breadth-first, not depth-first.
        assert order == [
            "outer-first",
            "outer-after-publish",
            "outer-second@0.0",
            "outer-first",
            "outer-after-publish",
            "outer-second@1.0",
        ]

    def test_published_count_tracks_deliveries(self):
        bus = EventBus()
        bus.publish(CapacityChanged(time=0.0))
        bus.publish(CapacityChanged(time=1.0))
        assert bus.published_count == 2

    def test_handler_failure_drops_undelivered_cascade(self):
        bus = EventBus()
        delivered = []

        def exploding(event):
            bus.publish(CapacityChanged(time=99.0))  # would be delivered later
            raise RuntimeError("handler broke")

        bus.subscribe(CapacityChanged, lambda e: delivered.append(e.time))
        handler = bus.subscribe(CapacityChanged, exploding)
        with pytest.raises(RuntimeError):
            bus.publish(CapacityChanged(time=0.0))
        # The queued cascade event must not replay on the next publish.
        bus.unsubscribe(CapacityChanged, handler)
        bus.publish(CapacityChanged(time=1.0))
        assert delivered == [0.0, 1.0]


@function(sim_profile=SimProfile(base_time_s=4.0, output_base_mb=2.0))
def bus_stage_a(data=None):
    return None


@function(sim_profile=SimProfile(base_time_s=2.0, output_base_mb=1.0))
def bus_stage_b(upstream=None):
    return None


@function(sim_profile=SimProfile(base_time_s=1.0))
def bus_stage_c(*parts):
    return None


def _run_logged_workflow(seed=0):
    """Run a diamond DAG on a fresh sim env, returning the event log."""
    env = build_two_site_env(seed=seed)
    client = env.make_client(env.make_config("DHA"))
    log = []
    client.bus.subscribe_all(lambda e: log.extend(expand_event(e)))
    with client:
        root = bus_stage_a()
        left = bus_stage_b(root)
        right = bus_stage_b(root)
        bus_stage_c(left, right)
        client.run()
    assert client.graph.is_complete()
    return log


class TestDeterminism:
    def test_event_sequence_is_deterministic_under_the_sim_clock(self):
        # Two independent runs of the same DAG on identically seeded
        # environments must announce the identical event sequence, with
        # identical simulated timestamps.
        first = _run_logged_workflow()
        second = _run_logged_workflow()
        assert first == second

    def test_lifecycle_order_per_task(self):
        log = _run_logged_workflow()
        root_events = [
            entry[1] for entry in log if len(entry) > 2 and entry[2] == "bus_stage_a"
        ]
        assert root_events == [
            "TaskReady",
            "TaskPlaced",
            "StagingDone",
            "TaskDispatched",
            "TaskCompleted",
        ]


class TestFrameCounts:
    """A delivery costs the ``publish`` frame plus one per handler, and a
    task event costs its dataclass ``__init__``: the engine builds each one
    in place, through no factory."""

    def test_publish_with_one_handler_runs_two_frames(self):
        bus = EventBus()
        seen = []

        def handler(event):
            seen.append(event)

        bus.subscribe(CapacityChanged, handler)
        event = CapacityChanged(time=0.0)
        assert python_frames(lambda: bus.publish(event)) == ["publish", "handler"]
        assert seen == [event]

    def test_building_a_task_placed_runs_one_frame(self):
        task = Task(function=bus_stage_a)
        frames = python_frames(
            lambda: TaskPlaced(
                time=1.0, task=task, task_id=task.task_id, name=task.name, endpoint="ep"
            )
        )
        assert frames == ["__init__"]

    def test_the_engine_builds_task_events_in_place(self):
        # Site a fails every attempt, so the failure ladder's TaskCompleted
        # and re-placement are built too.
        built = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__init__":
                instance = frame.f_locals.get("self")
                if isinstance(instance, TaskEvent):
                    caller = Path(frame.f_back.f_code.co_filename)
                    built.add((type(instance).__name__, caller.parent.name, caller.name))

        env = build_two_site_env(failure_rate_a=1.0)
        client = env.make_client(env.make_config("DHA"))
        sys.setprofile(profile)
        try:
            with client:
                root = bus_stage_a()
                bus_stage_c(bus_stage_b(root), bus_stage_b(root))
                client.run()
        finally:
            sys.setprofile(None)
        assert client.graph.is_complete()
        assert {kind for kind, _, _ in built} == {
            "TaskReady", "TaskPlaced", "StagingDone", "TaskCompleted",
        }
        assert {(package, module) for _, package, module in built} <= {
            ("engine", module) for module in ("core.py", "placement.py", "staging.py", "failure.py")
        }


class TestCopyOnWriteSnapshots:
    def test_subscribe_during_dispatch_misses_the_in_flight_event(self):
        bus = EventBus()
        calls = []

        def late_handler(event):
            calls.append(("late", event.time))

        def subscribing_handler(event):
            calls.append(("first", event.time))
            bus.subscribe(CapacityChanged, late_handler)

        bus.subscribe(CapacityChanged, subscribing_handler)
        bus.publish(CapacityChanged(time=0.0))
        # The handler subscribed mid-delivery must not see the event in
        # flight (delivery iterates the snapshot taken before it existed)...
        assert calls == [("first", 0.0)]
        bus.publish(CapacityChanged(time=1.0))
        # ...but sees every later event exactly once.
        assert calls == [("first", 0.0), ("first", 1.0), ("late", 1.0)]

    def test_subscribe_during_dispatch_sees_cascaded_events(self):
        bus = EventBus()
        calls = []

        def late_handler(event):
            calls.append(event.time)

        def cascading_handler(event):
            if event.time == 0.0:
                bus.subscribe(CapacityChanged, late_handler)
                bus.publish(CapacityChanged(time=1.0))

        bus.subscribe(CapacityChanged, cascading_handler)
        bus.publish(CapacityChanged(time=0.0))
        # A cascade is a fresh delivery, so the new subscription applies.
        assert calls == [1.0]

    def test_unsubscribe_during_dispatch_still_delivers_in_flight(self):
        bus = EventBus()
        calls = []

        def second(event):
            calls.append("second")

        def first(event):
            calls.append("first")
            bus.unsubscribe(CapacityChanged, second)

        bus.subscribe(CapacityChanged, first)
        bus.subscribe(CapacityChanged, second)
        bus.publish(CapacityChanged(time=0.0))
        assert calls == ["first", "second"]
        bus.publish(CapacityChanged(time=1.0))
        assert calls == ["first", "second", "first"]

    def test_snapshots_are_not_copied_per_delivery(self):
        bus = EventBus()
        bus.subscribe(CapacityChanged, lambda e: None)
        snapshot = bus._snapshots[CapacityChanged]
        for t in range(100):
            bus.publish(CapacityChanged(time=float(t)))
        # Same tuple object throughout: rebuilt on subscription change only.
        assert bus._snapshots[CapacityChanged] is snapshot


class TestEventLog:
    def test_log_entries_are_written_before_the_handlers_run(self):
        bus = EventBus()
        log = []
        seen = []
        bus.record_to(log)
        bus.subscribe(CapacityChanged, lambda e: seen.append(len(log)))
        bus.publish(CapacityChanged(time=1.0000000004))
        assert log == [(1.0, "CapacityChanged")] == list(expand_event(CapacityChanged(time=1.0)))
        assert seen == [1]

    def test_a_batch_event_logs_its_scalar_entries(self):
        bus = EventBus()
        log = []
        bus.record_to(log)
        entries = ((2.0, "TaskDispatched", "f", "site_a"), (2.0, "TaskDispatched", "g", "site_b"))
        bus.publish(TasksDispatched(time=2.0, count=2, scalar_log=entries))
        assert log == list(entries)

    def test_cascaded_events_are_logged_in_delivery_order(self):
        bus = EventBus()
        log = []
        bus.record_to(log)
        bus.subscribe(
            EndpointCrashed, lambda e: bus.publish(CapacityChanged(time=e.time))
        )
        bus.subscribe_all(lambda e: log.append("handler"))
        bus.publish(EndpointCrashed(time=3.0, endpoint="site_a", lost_tasks=2))
        assert log == [
            (3.0, "EndpointCrashed", "site_a", 2),
            "handler",
            (3.0, "CapacityChanged"),
            "handler",
        ]
