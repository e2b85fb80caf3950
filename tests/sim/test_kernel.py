"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimClock, SimulationKernel, WallClock

from tests.frames import python_frames


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_now_is_a_float_attribute(self):
        clock = SimClock()
        assert type(clock.now) is float
        assert "now" in vars(clock)

    def test_step_and_run_advance_the_attribute(self):
        kernel = SimulationKernel()
        clock = kernel.clock
        kernel.schedule(2.0, lambda: None)
        assert kernel.step()
        assert clock.now == 2.0
        kernel.run(until=7.5)
        assert clock.now == 7.5
        kernel.schedule(1.0, lambda: None)
        kernel.run(until=100.0)
        assert clock.now == 100.0

    def test_kernel_has_no_time_of_its_own(self):
        assert not hasattr(SimulationKernel(), "now")

    def test_advance_forward(self):
        clock = SimClock()
        clock._advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        clock._advance_to(5.0)
        with pytest.raises(ValueError):
            clock._advance_to(4.0)


class TestWallClock:
    def test_monotone_nonnegative(self):
        clock = WallClock()
        readings = [clock.now for _ in range(100)]
        assert all(type(t) is float for t in readings)
        assert readings[0] >= 0.0
        assert readings == sorted(readings)


class TestSchedule:
    def test_schedule_and_run(self):
        kernel = SimulationKernel()
        fired = []
        kernel.schedule(1.0, lambda: fired.append(kernel.clock.now))
        kernel.schedule(3.0, lambda: fired.append(kernel.clock.now))
        kernel.run()
        assert fired == [1.0, 3.0]
        assert kernel.clock.now == 3.0

    def test_schedule_with_args(self):
        kernel = SimulationKernel()
        got = []
        kernel.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
        kernel.run()
        assert got == [(1, "x")]

    def test_negative_delay_rejected(self):
        kernel = SimulationKernel()
        with pytest.raises(ValueError):
            kernel.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        kernel = SimulationKernel()
        kernel.schedule(2.0, lambda: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule_at(1.0, lambda: None)

    def test_fifo_order_for_simultaneous_events(self):
        kernel = SimulationKernel()
        order = []
        for i in range(10):
            kernel.schedule(1.0, order.append, i)
        kernel.run()
        assert order == list(range(10))

    def test_cancel(self):
        kernel = SimulationKernel()
        fired = []
        handle = kernel.schedule(1.0, lambda: fired.append("a"))
        kernel.schedule(2.0, lambda: fired.append("b"))
        handle.cancel()
        assert handle.cancelled
        kernel.run()
        assert fired == ["b"]

    def test_events_scheduled_during_run(self):
        kernel = SimulationKernel()
        fired = []

        def first():
            fired.append(("first", kernel.clock.now))
            kernel.schedule(2.0, lambda: fired.append(("second", kernel.clock.now)))

        kernel.schedule(1.0, first)
        kernel.run()
        assert fired == [("first", 1.0), ("second", 3.0)]

    def test_run_until(self):
        kernel = SimulationKernel()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            kernel.schedule(t, fired.append, t)
        kernel.run(until=2.5)
        assert fired == [1.0, 2.0]
        assert kernel.clock.now == 2.5
        kernel.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_step_fires_one_event(self):
        kernel = SimulationKernel()
        fired = []
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, fired.append, t)
        assert kernel.step() is True
        assert fired == [1.0]

    def test_step_returns_false_when_idle(self):
        assert SimulationKernel().step() is False

    def test_pending_and_processed_counts(self):
        kernel = SimulationKernel()
        h = kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        assert kernel.pending_events == 2
        h.cancel()
        assert kernel.pending_events == 1
        kernel.run()
        assert kernel.events_processed == 1


class TestHeapEntries:
    """The heap holds ``(time, seq, event)`` tuples; ``seq`` decides ties."""

    def test_cancelled_head_then_same_time_schedule_keeps_fifo(self):
        kernel = SimulationKernel()
        order = []
        head = kernel.schedule(1.0, order.append, "a")
        kernel.schedule(1.0, order.append, "b")
        kernel.schedule(1.0, order.append, "c")
        head.cancel()
        kernel.schedule_at(1.0, order.append, "d")
        kernel.run()
        assert order == ["b", "c", "d"]

    def test_equal_times_never_compare_events(self):
        # Scheduling at one instant from inside a callback at that instant
        # pushes entries whose time ties with the head's.
        kernel = SimulationKernel()
        order = []

        def spawn():
            order.append("spawn")
            for name in ("x", "y"):
                kernel.schedule(0.0, order.append, name)

        kernel.schedule(1.0, spawn)
        kernel.schedule(1.0, order.append, "sibling")
        kernel.run()
        assert order == ["spawn", "sibling", "x", "y"]

    def test_total_and_peek_skip_cancelled_entries(self):
        kernel = SimulationKernel()
        first = kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None, daemon=True)
        assert kernel.pending_events_total == 2
        assert kernel._peek_time() == 1.0
        first.cancel()
        assert kernel.pending_events_total == 1
        assert kernel._peek_time() == 2.0

    def test_peek_time_of_empty_and_fully_cancelled_queue(self):
        kernel = SimulationKernel()
        assert kernel._peek_time() is None
        kernel.schedule(1.0, lambda: None).cancel()
        assert kernel._peek_time() is None
        assert kernel.pending_events_total == 0

    def test_handle_time_and_cancelled(self):
        kernel = SimulationKernel()
        kernel.run(until=2.0)
        fired = kernel.schedule(0.5, lambda: None)
        dropped = kernel.schedule_at(4.0, lambda: None)
        assert (fired.time, dropped.time) == (2.5, 4.0)
        assert not fired.cancelled and not dropped.cancelled
        dropped.cancel()
        dropped.cancel()  # idempotent
        assert dropped.cancelled
        kernel.run()
        fired.cancel()  # already fired: a no-op
        assert not fired.cancelled
        assert kernel.clock.now == 2.5
        assert kernel.pending_events == 0


class TestDaemonEvents:
    def test_run_stops_when_only_daemon_events_remain(self):
        kernel = SimulationKernel()
        ticks = []
        kernel.schedule_periodic(10.0, lambda: ticks.append(kernel.clock.now), daemon=True)
        kernel.schedule(35.0, lambda: None)
        kernel.run()
        # The non-daemon event at t=35 bounds the run; the daemon periodic
        # fires while the simulation is alive but does not keep it alive.
        assert kernel.clock.now == 35.0
        assert ticks == [10.0, 20.0, 30.0]

    def test_run_until_processes_daemon_events(self):
        kernel = SimulationKernel()
        ticks = []
        kernel.schedule_periodic(10.0, lambda: ticks.append(kernel.clock.now), daemon=True)
        kernel.run(until=45.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_pending_events_excludes_daemon(self):
        kernel = SimulationKernel()
        kernel.schedule(5.0, lambda: None, daemon=True)
        kernel.schedule(5.0, lambda: None)
        assert kernel.pending_events == 1
        assert kernel.pending_events_total == 2

    def test_cancel_after_fire_does_not_corrupt_counters(self):
        kernel = SimulationKernel()
        handle = kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        kernel.run(until=1.5)
        handle.cancel()  # already fired; must be a no-op
        assert kernel.pending_events == 1
        kernel.run()
        assert kernel.pending_events == 0

    def test_cancelling_a_fired_or_daemon_handle_leaves_pending_events(self):
        kernel = SimulationKernel()
        fired = kernel.schedule(1.0, lambda: None)
        daemon = kernel.schedule(2.0, lambda: None, daemon=True)
        live = kernel.schedule_at(3.0, lambda: None)
        assert kernel.step() and fired.fired
        assert kernel.pending_events == 1
        fired.cancel()
        daemon.cancel()
        assert kernel.pending_events == 1
        assert daemon.cancelled and not fired.cancelled
        live.cancel()
        assert kernel.pending_events == 0
        assert kernel.pending_events_total == 0


class TestFrameCounts:
    """A scheduled event costs the ``schedule`` frame, the ``step`` frame
    and its callback's: the handle is filled in place, with no constructor
    frame of its own."""

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_schedule_then_step_runs_three_frames(self, method):
        kernel = SimulationKernel()
        fired = []

        def callback(value):
            fired.append(value)

        schedule = getattr(kernel, method)
        frames = python_frames(lambda: (schedule(1.0, callback, "x"), kernel.step()))
        assert frames == [method, "step", "callback"]
        assert fired == ["x"]


class TestPeriodic:
    def test_periodic_fires_until_cancelled(self):
        kernel = SimulationKernel()
        ticks = []
        handle = kernel.schedule_periodic(10.0, lambda: ticks.append(kernel.clock.now))
        kernel.schedule(45.0, handle.cancel)
        kernel.run()
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_periodic_start_delay(self):
        kernel = SimulationKernel()
        ticks = []
        handle = kernel.schedule_periodic(10.0, lambda: ticks.append(kernel.clock.now), start_delay=0.0)
        kernel.schedule(25.0, handle.cancel)
        kernel.run()
        assert ticks == [0.0, 10.0, 20.0]

    def test_periodic_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SimulationKernel().schedule_periodic(0.0, lambda: None)


class TestKernelProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        kernel = SimulationKernel()
        fire_times = []
        for d in delays:
            kernel.schedule(d, lambda: fire_times.append(kernel.clock.now))
        kernel.run()
        assert len(fire_times) == len(delays)
        assert fire_times == sorted(fire_times)
        assert fire_times == sorted(delays)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_cancelled_events_never_fire(self, delays, data):
        kernel = SimulationKernel()
        fired = []
        handles = [kernel.schedule(d, fired.append, i) for i, d in enumerate(delays)]
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(delays) - 1))
        )
        for idx in to_cancel:
            handles[idx].cancel()
        kernel.run()
        assert set(fired) == set(range(len(delays))) - to_cancel
