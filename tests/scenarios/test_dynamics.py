"""Unit tests for the dynamics layer: timelines, processes, compilation."""

import numpy as np
import pytest

from repro.scenarios.dynamics import (
    ChurnProcess,
    CrashRejoinCycle,
    DynamicsSpec,
    TimelineEvent,
)


class TestTimelineEvent:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown dynamics action"):
            TimelineEvent(at_s=1.0, action="meteor-strike")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="at_s"):
            TimelineEvent(at_s=-1.0, action="crash")

    def test_as_dict_is_json_friendly(self):
        event = TimelineEvent(at_s=1.5, action="churn", endpoint="ep", value=-3.0)
        d = event.as_dict()
        assert d["action"] == "churn"
        assert d["endpoint"] == "ep"
        assert d["value"] == -3.0


class TestProcesses:
    def test_churn_same_seed_same_timeline(self):
        process = ChurnProcess(mean_interval_s=20.0, max_delta_workers=4)
        a = process.expand(["x", "y"], 300.0, np.random.default_rng(42))
        b = process.expand(["x", "y"], 300.0, np.random.default_rng(42))
        assert a == b
        assert a, "expected some churn events within the horizon"

    def test_churn_different_seed_different_timeline(self):
        process = ChurnProcess(mean_interval_s=20.0, max_delta_workers=4)
        a = process.expand(["x"], 300.0, np.random.default_rng(1))
        b = process.expand(["x"], 300.0, np.random.default_rng(2))
        assert a != b

    def test_churn_respects_horizon(self):
        process = ChurnProcess(mean_interval_s=10.0, start_s=0.0)
        events = process.expand(["x"], 100.0, np.random.default_rng(0))
        assert all(e.at_s < 100.0 for e in events)
        assert all(e.action == "churn" for e in events)

    def test_crash_cycle_with_short_horizon_is_empty(self):
        cycle = CrashRejoinCycle()  # earliest_s=30 by default
        assert cycle.expand(["x"], 20.0, np.random.default_rng(0)) == []

    def test_crash_cycle_pairs_crash_with_rejoin(self):
        cycle = CrashRejoinCycle(crash_probability=1.0, earliest_s=10.0,
                                 latest_s=50.0, downtime_s=30.0)
        events = cycle.expand(["x"], 200.0, np.random.default_rng(0))
        assert [e.action for e in events] == ["crash", "rejoin"]
        crash, rejoin = events
        assert rejoin.at_s == pytest.approx(crash.at_s + 30.0)


class TestDynamicsSpec:
    def test_empty_spec(self):
        assert DynamicsSpec().is_empty
        assert DynamicsSpec().compile(["a"], np.random.default_rng(0)) == []

    def test_compile_sorts_by_time(self):
        spec = DynamicsSpec(
            scripted=(
                TimelineEvent(at_s=50.0, action="rejoin", endpoint="a"),
                TimelineEvent(at_s=10.0, action="crash", endpoint="a"),
            ),
            churn=ChurnProcess(mean_interval_s=15.0),
            horizon_s=120.0,
        )
        timeline = spec.compile(["a", "b"], np.random.default_rng(3))
        times = [e.at_s for e in timeline]
        assert times == sorted(times)
        assert timeline[0].action == "crash"

    def test_stochastic_processes_touch_every_endpoint(self):
        spec = DynamicsSpec(churn=ChurnProcess(mean_interval_s=10.0), horizon_s=200.0)
        timeline = spec.compile(["a", "b"], np.random.default_rng(0))
        assert {e.endpoint for e in timeline} == {"a", "b"}

    def test_compile_is_deterministic(self):
        spec = DynamicsSpec(
            churn=ChurnProcess(mean_interval_s=12.0),
            crashes=CrashRejoinCycle(crash_probability=0.5),
            horizon_s=300.0,
        )
        a = spec.compile(["x", "y", "z"], np.random.default_rng(9))
        b = spec.compile(["x", "y", "z"], np.random.default_rng(9))
        assert a == b
