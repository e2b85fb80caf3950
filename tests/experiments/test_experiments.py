"""Smoke tests for the experiment harnesses (tiny scales).

The benchmarks exercise the paper-sized (scaled) configurations; these tests
only check that each harness runs end to end and produces sensible,
well-formed results.
"""

import pytest

from repro.core.functions import set_current_client
from repro.experiments.case_studies import (
    run_dynamic_capacity_study,
    run_static_capacity_study,
)
from repro.experiments.elasticity import run_elasticity_experiment
from repro.experiments.latency import run_latency_experiment
from repro.experiments.overhead import run_overhead_experiment
from repro.experiments.reporting import (
    downsample,
    format_case_study_table,
    format_table,
    format_timeseries,
)
from repro.experiments.scaling import run_scaling_experiment
from repro.metrics.collector import TimeSeries
from repro.scenarios.presets import paper_spec


@pytest.fixture(autouse=True)
def clean_context():
    set_current_client(None)
    yield
    set_current_client(None)


class TestLatencyExperiment:
    def test_breakdown_components(self):
        result = run_latency_experiment(runs=2)
        rows = dict(result.rows())
        # Remote execution dominates; every client-side component is small.
        assert rows["remote_execution"] == pytest.approx(1.087 + 0.062, rel=0.05)
        assert rows["data_management"] > 0.2  # 1 MB over a slow WAN link
        assert rows["scheduling"] < 0.1
        assert rows["result_polling"] == pytest.approx(0.117)
        assert result.breakdown.total() < 5.0

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            run_latency_experiment(runs=0)


class TestScalingExperiment:
    def test_strong_scaling_improves_with_endpoints(self):
        result = run_scaling_experiment(
            mode="strong", task_duration_s=5.0, endpoint_counts=(1, 2, 4), scale=0.01
        )
        times = result.completion_times()
        assert times[2] < times[1]
        assert times[4] < times[2]
        speedup = result.speedup()
        assert speedup[4] > 2.0

    def test_weak_scaling_roughly_flat(self):
        result = run_scaling_experiment(
            mode="weak", task_duration_s=5.0, endpoint_counts=(1, 2), scale=0.05
        )
        times = result.completion_times()
        assert times[2] == pytest.approx(times[1], rel=0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_scaling_experiment(mode="sideways")
        with pytest.raises(ValueError):
            run_scaling_experiment(task_duration_s=3.0)
        with pytest.raises(ValueError):
            run_scaling_experiment(scale=0.0)


class TestElasticityExperiment:
    def test_endpoints_scale_up_and_back_down(self):
        phases = [
            (10.0, {"ep1": (20, 10.0), "ep2": (8, 5.0), "ep3": (4, 5.0)}),
            (70.0, {"ep1": (40, 10.0), "ep2": (16, 5.0), "ep3": (8, 5.0)}),
        ]
        result = run_elasticity_experiment(
            phases, max_workers={"ep1": 40, "ep2": 16, "ep3": 8}
        )
        assert result.completed_tasks == 96
        # Every endpoint scaled out...
        for name in ("ep1", "ep2", "ep3"):
            assert result.max_workers_observed[name] > 0
        # ...respecting its cap, and returned its workers when idle.
        assert result.max_workers_observed["ep1"] <= 40
        assert result.scaled_to_zero("ep1")
        assert result.scaled_to_zero("ep3")


class TestOverheadExperiment:
    def test_per_task_overheads_small_and_ordered(self):
        result = run_overhead_experiment(scale=0.005)
        assert set(result.overhead_per_task_s) == {"CAPACITY", "LOCALITY", "DHA"}
        # All algorithms stay in the sub-100ms-per-task regime (Table III is
        # sub-10ms on the paper's workstation).
        assert all(v < 0.1 for v in result.overhead_per_task_s.values())
        assert result.ordering_matches_paper()


class TestCaseStudies:
    def test_single_case_study_result_fields(self):
        result = run_static_capacity_study("drug_screening", scale=0.005)["DHA"]
        assert result.completed_tasks == result.task_count
        assert result.makespan_s > 0
        assert result.transfer_size_gb >= 0
        assert len(result.utilization) > 0
        assert sum(result.tasks_per_endpoint.values()) == result.task_count
        assert result.tasks_per_worker()

    def test_static_study_contains_baseline(self):
        results = run_static_capacity_study("montage", scale=0.005)
        assert list(results) == ["CAPACITY", "LOCALITY", "DHA", "Baseline: Only Qiming"]

    def test_dynamic_study_includes_no_rescheduling_ablation(self):
        results = run_dynamic_capacity_study("drug_screening", scale=0.005)
        assert list(results) == ["CAPACITY", "LOCALITY", "DHA", "DHA without re-sched."]
        assert results["DHA without re-sched."].rescheduled_tasks == 0

    def test_unknown_workflow_rejected(self):
        with pytest.raises(ValueError):
            paper_spec("protein_folding", scale=0.01)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            paper_spec("montage", scale=0.0)


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.0001]])
        assert "a" in text and "x" in text
        assert "2.50" in text

    def test_case_study_table(self):
        results = run_static_capacity_study("montage", scale=0.005)
        text = format_case_study_table(results)
        assert "Makespan" in text
        assert "DHA" in text

    def test_downsample_and_series_formatting(self):
        series = TimeSeries()
        for i in range(100):
            series.append(float(i), float(i * 2))
        points = downsample(series, max_points=10)
        assert len(points) <= 12
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (99.0, 198.0)
        assert "99s:198" in format_timeseries("w", series)

    def test_downsample_empty(self):
        assert downsample(TimeSeries()) == []
