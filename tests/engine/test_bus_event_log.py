"""The bus writes the event log.

A list attached with :meth:`EventBus.record_to` must hold, entry for entry,
what :func:`expand_event` — the definition of the log — makes of the events
an any-event subscriber on the same bus sees.  The runs below are the ones
whose bus cascades are deepest: crash re-placement, worker churn, the §IV-G
failure ladder, several endpoint-pinned successors readied by one completion
and placed by the next pump, and tenants retiring from an open-loop stream.
A scenario run itself installs no any-event handler at all.
"""

from dataclasses import replace

import pytest

from repro.core.client import ENDPOINT_HINT_KWARG
from repro.engine.bus import EventBus
from repro.engine.events import TaskReady, expand_event
from repro.scenarios.dynamics import DynamicsSpec, TimelineEvent
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import run_scenario
from repro.workloads.spec import TaskTypeSpec, make_task_type

from tests.integration.conftest import build_two_site_env


@pytest.fixture
def twin_logs(monkeypatch):
    """Every log a run attaches, paired with an ``expand_event`` log kept by
    an any-event subscriber on the same bus from the same moment on."""
    pairs = []
    record_to = EventBus.record_to

    def record_with_twin(bus, entries):
        record_to(bus, entries)
        expanded = []
        bus.subscribe_all(lambda event: expanded.extend(expand_event(event)))
        pairs.append((entries, expanded))

    monkeypatch.setattr(EventBus, "record_to", record_with_twin)
    return pairs


def kinds(pairs):
    return {entry[1] for written, _ in pairs for entry in written}


def crash_mid_run():
    # The preset's crash comes after its (CI-sized) run ends: move it inside.
    return replace(
        get_scenario("chaos-crash-rejoin"),
        dynamics=DynamicsSpec(
            scripted=(
                TimelineEvent(at_s=12.0, action="crash", endpoint="taiyi"),
                TimelineEvent(at_s=30.0, action="rejoin", endpoint="taiyi", value=24.0),
            )
        ),
    )


def failing_site():
    # Every attempt on site_a fails: retry, then reassign to site_b (§IV-G).
    smoke = get_scenario("ci-smoke")
    site_a, site_b = smoke.topology
    return replace(smoke, topology=(replace(site_a, failure_rate=1.0), site_b))


#: Scenario -> the entry its log must hold (the cascade it exercises).
CASCADES = {
    "crash re-placement": (crash_mid_run, "EndpointCrashed"),
    "worker churn": (lambda: get_scenario("chaos-churn-dha"), "WorkerChurn"),
    "failure ladder": (failing_site, "TaskCompleted"),
    "streaming retirement": (lambda: get_scenario("stream-steady"), "TaskReady"),
}


@pytest.mark.parametrize("cascade", sorted(CASCADES))
def test_bus_written_log_is_the_expansion_of_the_event_stream(twin_logs, cascade):
    build, kind = CASCADES[cascade]
    result = run_scenario(build(), seed=1)
    assert result.completed_tasks > 0
    assert twin_logs
    for written, expanded in twin_logs:
        assert written
        assert written == expanded
    entries = [entry for written, _ in twin_logs for entry in written]
    assert kind in {entry[1] for entry in entries}
    # A batch event is never an entry of its own: it expands to its tasks'.
    assert not {"TasksCompleted", "TasksReady", "TasksDispatched"} & kinds(twin_logs)
    if cascade == "crash re-placement":
        crash = next(i for i, entry in enumerate(entries) if entry[1] == "EndpointCrashed")
        assert any(entry[1] == "TaskPlaced" for entry in entries[crash:])
    elif cascade == "failure ladder":
        assert any(entry[1] == "TaskCompleted" and entry[4] is False for entry in entries)
    elif cascade == "streaming retirement":
        # One log per admitted tenant, kept whole after its retirement.
        assert len(twin_logs) == result.streaming["admitted"] > 1
        assert result.streaming["retired"] > 0


PRODUCE = TaskTypeSpec(name="log_produce", duration_s=1.0, output_mb=5.0)
PINNED = TaskTypeSpec(name="log_pinned", duration_s=1.0, output_mb=0.0)


def test_pinned_successors_log_the_same_entries():
    # One completion unlocks several endpoint-pinned successors, which wait
    # in the pinned set until the next pump places them on their pins.
    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    written, expanded = [], []
    client.bus.record_to(written)
    client.bus.subscribe_all(lambda event: expanded.extend(expand_event(event)))
    produce, pinned = make_task_type(PRODUCE), make_task_type(PINNED)
    with client:
        for _ in range(2):
            out = produce()
            for site in ("site_a", "site_b", "site_a"):
                pinned(out, **{ENDPOINT_HINT_KWARG: site})
    client.run(max_wall_time_s=60.0)
    assert client.graph.is_complete()
    assert written == expanded
    placed = [entry[3] for entry in written if entry[1:3] == ("TaskPlaced", "log_pinned")]
    assert sorted(placed) == ["site_a"] * 4 + ["site_b"] * 2


def test_detached_log_records_nothing():
    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    entries = []
    client.bus.record_to(entries)
    client.bus.record_to(None)
    with client:
        make_task_type(PINNED)()
    client.run(max_wall_time_s=60.0)
    assert client.graph.is_complete()
    assert entries == []


def test_a_scenario_run_installs_no_any_event_handler(monkeypatch):
    installed = []
    subscribe_all = EventBus.subscribe_all

    def spy(bus, handler):
        installed.append(handler)
        return subscribe_all(bus, handler)

    monkeypatch.setattr(EventBus, "subscribe_all", spy)
    logs = []
    record_to = EventBus.record_to
    monkeypatch.setattr(
        EventBus, "record_to", lambda bus, entries: logs.append(entries) or record_to(bus, entries)
    )
    run_scenario(get_scenario("ci-smoke"), seed=1)
    assert installed == []
    assert logs and all(log for log in logs)
    assert TaskReady.__name__ in {entry[1] for log in logs for entry in log}
