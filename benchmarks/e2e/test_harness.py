"""Self-tests of the end-to-end benchmark harness, at toy sizes.

They check the instrument, not the program: span arithmetic, that tracing
leaves nothing behind, that a vanished trace target costs a metric and not
the run, that the call count repeats exactly, and that a repetition which
does not reproduce the warm-up fails the run.
"""

from __future__ import annotations

import json

import pytest

import layers
import run
import spans
import worker
import workloads
from repro.scenarios.spec import EndpointSpec, ScenarioSpec, WorkloadSpec, run_scenario

TOY = ScenarioSpec(
    name="toy",
    description="two small layers on two sites",
    workload=WorkloadSpec(kind="layered", task_count=24, duration_s=1.0, output_mb=1.0,
                          layer_width=8),
    topology=(
        EndpointSpec(name="site_a", cluster="qiming", workers=6),
        EndpointSpec(name="site_b", cluster="lab", workers=4),
    ),
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.spend(3.0)

    leaf = tracer.wrap("b.leaf", leaf)

    def outer():
        clock.spend(1.0)
        leaf()
        clock.spend(2.0)
        leaf()

    outer = tracer.wrap("a.outer", outer)
    outer()

    assert tracer.stats["a.outer"].as_dict() == {
        "count": 1, "total_s": 9.0, "self_s": 3.0, "items": 0
    }
    assert tracer.stats["b.leaf"].as_dict() == {
        "count": 2, "total_s": 6.0, "self_s": 6.0, "items": 0
    }
    assert tracer.edges[("a.outer", "b.leaf")] == [2, 6.0]
    assert tracer.edges[(spans.ROOT, "a.outer")] == [1, 9.0]
    assert tracer.layer_self_s() == {"a": 3.0, "b": 6.0}
    assert tracer.self_total_s() == 9.0


def test_reentrant_span_counts_its_total_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def descend(depth):
        clock.spend(1.0)
        if depth:
            descend(depth - 1)
        return [depth]

    descend = tracer.wrap("a.descend", descend, sized=True)
    descend(2)

    stat = tracer.stats["a.descend"]
    assert stat.count == 3
    assert stat.self_s == 3.0
    assert stat.total_s == 3.0  # not 3 + 2 + 1
    assert stat.items == 3
    assert stat.depth == 0


def test_span_survives_an_exception_in_the_wrapped_call():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.spend(2.0)
        raise KeyError("x")

    boom = tracer.wrap("a.boom", boom, sized=True)
    with pytest.raises(KeyError):
        boom()
    assert tracer.stats["a.boom"].as_dict() == {
        "count": 1, "total_s": 2.0, "self_s": 2.0, "items": 0
    }
    assert tracer._stack == []


def test_counted_reps_repeat_exactly_and_tracing_leaves_nothing_behind():
    run_scenario(TOY, seed=3)  # lazy imports and caches settle
    before = worker.counted_rep(run_scenario, TOY, 3)
    again = worker.counted_rep(run_scenario, TOY, 3)
    assert before["py_calls"] == again["py_calls"] > 0
    assert before["outcome"] == again["outcome"]

    # Nothing here names a trace target: a later change that renames one
    # loses a metric (with a warning), never this test.
    traced = worker.traced_rep(run_scenario, TOY, 3)
    assert traced["outcome"] == before["outcome"]
    assert sum(span["count"] for span in traced["trace"]["spans"].values()) > 0

    after = worker.counted_rep(run_scenario, TOY, 3)
    assert after["py_calls"] == before["py_calls"]
    for target in layers.TARGETS:
        resolved = spans._resolve(target)
        assert resolved is None or not hasattr(resolved[2], "__wrapped__"), target.where


def test_missing_target_drops_its_metric_not_the_run(capsys):
    gone = [
        spans.Target("engine.run", "repro.engine.core:ExecutionEngine.no_such_method"),
        spans.Target("sched.schedule", "repro.no_such_module:Thing.method"),
        spans.Target("sim.step", "repro.sim.kernel:NoSuchClass.step"),
    ]
    traced = worker.traced_rep(run_scenario, TOY, 3, targets=gone)

    assert traced["missing"] == [target.where for target in gone]
    assert "is gone" in capsys.readouterr().err
    assert traced["metrics"]["engine.run_self_s"] == 0
    assert traced["metrics"]["sched.schedule_calls_per_task"] == 0
    assert traced["metrics"]["sim.kernel_events_per_task"] == 0
    assert traced["outcome"]["completed_tasks"] == 24


def test_every_per_layer_metric_of_the_contract_is_produced():
    contract = run.load_contract()
    traced = worker.traced_rep(run_scenario, TOY, 3)
    from_driver = {n for n in (m["name"] for m in contract["per_layer"]) if n.startswith("harness.")}
    declared = {metric["name"] for metric in contract["per_layer"]}
    assert set(traced["metrics"]) | from_driver == declared
    assert {workload["name"] for workload in contract["workloads"]} == set(workloads.BUILDERS)


def _raw(outcome, rep_outcomes):
    sample = {"wall_s": 1.0, "cal_s": run.CAL_REF_S}
    return {
        "warmup": {**sample, "outcome": outcome},
        "reps": [{**sample, "outcome": o} for o in rep_outcomes],
        "probes": [sample] * 2,
        "peak_rss_mb": 50.0,
        "finals": [{"py_calls": 2400, "outcome": outcome}],
    }


def test_digest_mismatch_fails_the_run(monkeypatch, capsys):
    good = {"digest": "aa", "total_tasks": 24, "completed_tasks": 24, "failed_tasks": 0,
            "makespan_s": 5.0, "staged_mb": 1.0}
    bad = {**good, "digest": "bb"}

    monkeypatch.setattr(run, "measure", lambda names, *a: {n: _raw(good, [good, good]) for n in names})
    assert run.main(["--workload", "fanout-array", "--reps", "2"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 24 and result["failed"] == 0
    assert result["metrics"]["py_calls_per_task"] == {"value": 100.0, "unit": "calls/task"}
    assert result["metrics"]["tasks_per_s"]["value"] == 24.0

    monkeypatch.setattr(run, "measure", lambda names, *a: {n: _raw(good, [good, bad]) for n in names})
    assert run.main(["--workload", "fanout-array", "--reps", "2"]) == 1
    out = capsys.readouterr().out
    assert "does not reproduce the warm-up" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_unfinished_tasks_count_as_failed(monkeypatch, capsys):
    short = {"digest": "aa", "total_tasks": 24, "completed_tasks": 21, "failed_tasks": 3,
             "makespan_s": 5.0, "staged_mb": 1.0}
    monkeypatch.setattr(run, "measure", lambda names, *a: {n: _raw(short, [short, short]) for n in names})
    assert run.main(["--workload", "fanout-array", "--reps", "2"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["attempted"], result["failed"], result["correct"]) == (24, 3, False)


def test_spread_is_the_interquartile_share_of_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(values, n=4) -> [11.75, 14.5, 17.25]
    assert run.spread(values) == pytest.approx(5.5 / 14.5)
