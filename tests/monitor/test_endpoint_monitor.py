"""Tests for the endpoint monitor's local mocking mechanism."""

from dataclasses import replace

import pytest

from repro.core.exceptions import EndpointError
from repro.faas.types import EndpointStatus
from repro.monitor.endpoint_monitor import EndpointMonitor, MockEndpoint
from repro.sim.kernel import SimClock


def status(name="ep1", active=4, busy=0, pending=0, as_of=0.0):
    return EndpointStatus(
        endpoint=name,
        online=True,
        active_workers=active,
        busy_workers=busy,
        idle_workers=active - busy,
        pending_tasks=pending,
        max_workers=16,
        cores_per_node=24,
        cpu_freq_ghz=2.6,
        ram_gb=64,
        as_of=as_of,
    )


class StatusStub:
    """Stand-in for the service: returns configurable stale snapshots."""

    def __init__(self):
        self.snapshots = {}
        self.calls = 0

    def __call__(self, name):
        self.calls += 1
        return self.snapshots[name]


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def provider():
    stub = StatusStub()
    stub.snapshots["ep1"] = status()
    return stub


class TestMockEndpoint:
    def test_dispatch_and_completion_bookkeeping(self):
        mock = MockEndpoint(name="ep1", active_workers=2)
        mock.record_dispatch()
        assert mock.busy_workers == 1
        assert mock.idle_workers == 1
        mock.record_dispatch()
        mock.record_dispatch()  # third task has no idle worker -> queued
        assert mock.busy_workers == 2
        assert mock.pending_tasks == 1
        assert mock.free_capacity == 0
        assert mock.outstanding_tasks == 3

        mock.record_completion()
        # The queued mock task takes the freed worker.
        assert mock.pending_tasks == 0
        assert mock.busy_workers == 2
        mock.record_completion()
        mock.record_completion()
        assert mock.busy_workers == 0
        assert mock.outstanding_tasks == 0

    def test_completion_never_negative(self):
        mock = MockEndpoint(name="ep1", active_workers=1)
        mock.record_completion()
        assert mock.busy_workers == 0
        assert mock.outstanding_tasks == 0

    def test_synchronize_overwrites_state(self):
        mock = MockEndpoint(name="ep1")
        mock.synchronize(status(active=8, busy=3, pending=2), now=5.0)
        assert mock.active_workers == 8
        assert mock.busy_workers == 3
        assert mock.pending_tasks == 2
        assert mock.last_synced_at == 5.0
        assert mock.hardware_features() == (24.0, 2.6, 64.0)


class TestEndpointMonitor:
    def test_register_initialises_from_service(self, provider, clock):
        monitor = EndpointMonitor(provider, clock)
        mock = monitor.register("ep1")
        assert mock.active_workers == 4
        assert monitor.endpoint_names() == ["ep1"]
        with pytest.raises(EndpointError):
            monitor.register("ep1")

    def test_unknown_endpoint_rejected(self, provider, clock):
        monitor = EndpointMonitor(provider, clock)
        with pytest.raises(EndpointError):
            monitor.mock("ghost")

    def test_mocking_gives_realtime_view_despite_stale_service(self, provider, clock):
        monitor = EndpointMonitor(provider, clock, sync_interval_s=60.0)
        monitor.register("ep1")
        monitor.record_dispatch("ep1")
        monitor.record_dispatch("ep1")
        # Service snapshot still says idle; the mock knows better.
        assert provider.snapshots["ep1"].busy_workers == 0
        assert monitor.idle_workers("ep1") == 2
        assert monitor.free_capacity("ep1") == 2
        monitor.record_completion("ep1")
        assert monitor.idle_workers("ep1") == 3

    def test_periodic_synchronize_respects_interval(self, provider, clock):
        monitor = EndpointMonitor(provider, clock, sync_interval_s=60.0)
        monitor.register("ep1")
        calls_after_register = provider.calls
        monitor.synchronize()  # too soon; nothing refreshed
        assert provider.calls == calls_after_register
        clock._advance_to(61.0)
        provider.snapshots["ep1"] = status(active=10, as_of=61.0)
        monitor.synchronize()
        assert monitor.active_workers("ep1") == 10
        assert monitor.sync_count == 1

    def test_force_synchronize(self, provider, clock):
        monitor = EndpointMonitor(provider, clock, sync_interval_s=1e9)
        monitor.register("ep1")
        provider.snapshots["ep1"] = status(active=7)
        monitor.synchronize(force=True)
        assert monitor.active_workers("ep1") == 7

    def test_mocking_disabled_reads_service_every_time(self, provider, clock):
        monitor = EndpointMonitor(provider, clock, mocking_enabled=False)
        monitor.register("ep1")
        monitor.record_dispatch("ep1")
        # With mocking disabled the monitor trusts the (stale) service view,
        # so the dispatch is immediately forgotten on the next query.
        assert monitor.idle_workers("ep1") == 4

    def test_capacity_queries(self, provider, clock):
        provider.snapshots["ep2"] = status(name="ep2", active=2, busy=2)
        monitor = EndpointMonitor(provider, clock)
        monitor.register("ep1")
        monitor.register("ep2")
        assert monitor.capacities() == {"ep1": 4, "ep2": 2}
        assert monitor.free_capacities() == {"ep1": 4, "ep2": 0}

    def test_invalid_interval(self, provider, clock):
        with pytest.raises(ValueError):
            EndpointMonitor(provider, clock, sync_interval_s=0.0)

    @pytest.mark.parametrize("mocking", [True, False])
    def test_free_capacities_equals_the_per_name_reads(self, provider, clock, mocking):
        provider.snapshots["ep2"] = status(name="ep2", active=2, busy=2, pending=3)
        provider.snapshots["ep3"] = status(name="ep3", active=6, busy=1, pending=2)
        monitor = EndpointMonitor(provider, clock, mocking_enabled=mocking)
        for name in ("ep1", "ep2", "ep3"):
            monitor.register(name)
        steps = [
            lambda: monitor.record_dispatch("ep1"),
            lambda: monitor.record_dispatch("ep3", cores=4),
            lambda: monitor.record_completion("ep2"),
            lambda: provider.snapshots.update(ep1=status(active=1, busy=1, pending=5)),
            lambda: monitor.synchronize(force=True),
            lambda: monitor.record_completion("ep1"),
        ]
        for step in [lambda: None] + steps:
            step()
            free = monitor.free_capacities()
            assert free == {name: monitor.free_capacity(name) for name in monitor.endpoint_names()}
            assert list(free) == monitor.endpoint_names()
            assert all(count >= 0 for count in free.values())

    def test_free_capacities_without_mocking_resynchronises_every_read(self, provider, clock):
        monitor = EndpointMonitor(provider, clock, mocking_enabled=False)
        monitor.register("ep1")
        monitor.record_dispatch("ep1")
        calls, version = provider.calls, monitor.state_version
        assert monitor.free_capacities() == {"ep1": 4}  # the dispatch is forgotten
        assert provider.calls == calls + 1
        assert monitor.state_version > version


class TestPerTaskAccessors:
    """``record_dispatch`` / ``record_completion`` / ``free_capacity``: the
    reads and writes every dispatched task makes."""

    ACCESSORS = {
        "record_dispatch": lambda monitor, name: monitor.record_dispatch(name),
        "record_completion": lambda monitor, name: monitor.record_completion(name),
        "free_capacity": lambda monitor, name: monitor.free_capacity(name),
    }

    @pytest.mark.parametrize("mocking", [True, False])
    @pytest.mark.parametrize("accessor", sorted(ACCESSORS))
    def test_unknown_endpoint_raises(self, provider, clock, mocking, accessor):
        monitor = EndpointMonitor(provider, clock, mocking_enabled=mocking)
        monitor.register("ep1")
        with pytest.raises(EndpointError):
            self.ACCESSORS[accessor](monitor, "ghost")

    def test_mocking_on_never_asks_the_service(self, provider, clock):
        monitor = EndpointMonitor(provider, clock)
        monitor.register("ep1")
        calls, version = provider.calls, monitor.state_version
        monitor.record_dispatch("ep1", cores=2)
        assert monitor.free_capacity("ep1") == 2
        monitor.record_completion("ep1", cores=2)
        assert monitor.free_capacity("ep1") == 4
        assert provider.calls == calls
        assert monitor.state_version == version + 2
        assert monitor.hardware_version == 0

    # (accessor, state_version step, mock's (busy, pending) after, result)
    WITHOUT_MOCKING = [
        ("record_dispatch", 2, (3, 2), None),
        ("record_completion", 2, (2, 1), None),
        ("free_capacity", 1, (2, 2), 4),
    ]

    @pytest.mark.parametrize("accessor, version_step, counters, result", WITHOUT_MOCKING)
    def test_mocking_off_resynchronises_before_acting(
        self, provider, clock, accessor, version_step, counters, result
    ):
        monitor = EndpointMonitor(provider, clock, mocking_enabled=False)
        monitor.register("ep1")
        clock._advance_to(9.0)
        provider.snapshots["ep1"] = replace(status(active=8, busy=2, pending=2), cores_per_node=48)
        calls, version, syncs = provider.calls, monitor.state_version, monitor.sync_count
        assert self.ACCESSORS[accessor](monitor, "ep1") == result
        mock = monitor._mocks["ep1"]
        # The accessor acted on the fresh snapshot, not on the stale mock.
        assert (mock.active_workers, mock.cores_per_node) == (8, 48)
        assert (mock.busy_workers, mock.pending_tasks) == counters
        assert mock.last_synced_at == 9.0
        assert provider.calls == calls + 1
        assert monitor.sync_count == syncs
        assert monitor.state_version == version + version_step
        assert monitor.hardware_version == 1
        # Same hardware again: the capacity version moves, the hardware one not.
        self.ACCESSORS[accessor](monitor, "ep1")
        assert monitor.state_version == version + 2 * version_step
        assert monitor.hardware_version == 1
