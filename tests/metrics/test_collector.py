"""Tests for the metrics collector."""

import pytest

from repro.metrics.collector import LatencyBreakdown, MetricsCollector, TimeSeries


class TestTimeSeries:
    def test_append_and_stats(self):
        series = TimeSeries()
        series.append(0.0, 1.0)
        series.append(5.0, 3.0)
        assert len(series) == 2
        assert series.values[-1] == 3.0
        assert series.max() == 3.0
        assert series.mean() == 2.0

    def test_empty_series(self):
        series = TimeSeries()
        assert series.values == []
        assert series.max() == 0.0
        assert series.mean() == 0.0


class TestLatencyBreakdown:
    def test_total_and_dict(self):
        breakdown = LatencyBreakdown(
            scheduling_s=0.003,
            data_management_s=0.001,
            submission_s=0.004,
            execution_s=1.087,
            result_polling_s=0.117,
            result_logging_s=0.001,
        )
        assert breakdown.total() == pytest.approx(1.213)
        assert breakdown.as_dict()["execution_s"] == pytest.approx(1.087)


class TestMetricsCollector:
    def test_sampling_and_utilization(self):
        collector = MetricsCollector(sample_interval_s=1.0)
        collector.sample(
            0.0,
            {"a": (10, 5), "b": (10, 10)},
            staging_tasks=3,
        )
        assert collector.utilization.values == [75.0]
        assert collector.staging_tasks.values == [3]
        assert collector.active_workers["a"].values == [10]
        assert collector.busy_workers["b"].values == [10]

    def test_completion_counters(self):
        collector = MetricsCollector()
        collector.record_completion("a", "fn", success=True)
        collector.record_completion("a", "fn", success=True)
        # A failed attempt is retried or reassigned: not a failed task ...
        collector.record_completion("b", "fn", success=False)
        assert collector.failed_count == 0
        # ... until the ladder gives up on it.
        collector.record_failure()
        assert collector.completed_count == 2
        assert collector.failed_count == 1
        assert collector.tasks_completed_by_endpoint == {"a": 2}

    def test_makespan_and_summary(self):
        collector = MetricsCollector()
        collector.workflow_started(10.0)
        collector.workflow_finished(110.0)
        collector.record_completion("a", "fn", success=True)
        collector.record_reschedule(3)
        collector.record_scheduling_overhead(0.01, 10)
        summary = collector.summary(transfer_volume_mb=2048.0)
        assert summary.makespan_s == 100.0
        assert summary.transfer_volume_gb == pytest.approx(2.0)
        assert summary.rescheduled_tasks == 3
        assert summary.scheduler_overhead_per_task_s == pytest.approx(0.001)
        assert summary.as_dict()["completed_tasks"] == 1

    def test_every_endpoint_gets_a_pending_sample(self):
        collector = MetricsCollector(sample_interval_s=1.0)
        workers = {"a": (2, 1), "b": (2, 2)}
        collector.sample(0.0, workers, 0, {"b": 3})
        collector.sample(1.0, workers, 0, {})
        assert collector.pending_tasks["a"].values == [0, 0]
        assert collector.pending_tasks["b"].values == [3, 0]
        assert collector.pending_tasks["b"].times == [0.0, 1.0]
        # No pending mapping, no pending series.
        collector.sample(2.0, workers, 0)
        assert len(collector.pending_tasks["a"]) == 2

    def test_pending_series_returns_to_zero_when_a_run_drains(self):
        from repro.scenarios.presets import get_scenario
        from repro.scenarios.spec import run_scenario

        metrics = run_scenario(get_scenario("ci-smoke"), seed=0).metrics
        assert set(metrics.pending_tasks) == set(metrics.active_workers)
        for endpoint, series in metrics.pending_tasks.items():
            assert series.times == metrics.active_workers[endpoint].times
            assert series.values[-1] == 0
        assert max(max(s.values) for s in metrics.pending_tasks.values()) > 0

    def test_zero_division_guards(self):
        collector = MetricsCollector()
        assert collector.makespan_s == 0.0
        assert collector.scheduler_overhead_per_task_s() == 0.0
        collector.sample(0.0, {}, staging_tasks=0)
        assert collector.utilization.values == [0.0]

    def test_invalid_sample_interval(self):
        with pytest.raises(ValueError):
            MetricsCollector(sample_interval_s=0.0)


class TestStreamingStats:
    def test_mean_matches_list_sum_bit_for_bit(self):
        import random

        from repro.metrics.collector import StreamingStats

        rng = random.Random(7)
        values = [rng.uniform(0.0, 500.0) for _ in range(10_000)]
        stats = StreamingStats()
        stats.observe_many(values)
        assert stats.mean() == sum(values) / len(values)

    def test_percentile_exact_while_stream_fits_the_reservoir(self):
        import random

        from repro.metrics.collector import StreamingStats, percentile

        rng = random.Random(11)
        values = [rng.uniform(0.0, 100.0) for _ in range(1000)]
        stats = StreamingStats()
        stats.observe_many(values)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert stats.percentile(q) == percentile(values, q)

    def test_reservoir_stays_bounded_and_estimates_beyond_capacity(self, monkeypatch):
        import random

        from repro.metrics.collector import StreamingStats

        monkeypatch.setattr(StreamingStats, "capacity", 256)
        rng = random.Random(13)
        stats = StreamingStats()
        n = 50_000
        for _ in range(n):
            stats.observe(rng.uniform(0.0, 1.0))
        assert len(stats._reservoir) == 256
        assert stats.count == n
        # Uniform[0,1] p95 lands near 0.95 with a uniform sample.
        assert 0.85 <= stats.percentile(0.95) <= 1.0


class TestWaitTimeStreaming:
    def test_set_wait_times_replaces_the_stream(self):
        collector = MetricsCollector()
        collector.wait_stats.observe(1.0)
        collector.set_wait_times([2.0, 4.0])
        assert collector.wait_time_mean_s() == 3.0
        assert collector.wait_time_p95_s() == 4.0

    def test_accepts_any_iterable_without_retaining_it(self):
        collector = MetricsCollector()
        collector.set_wait_times(float(v) for v in range(10))
        assert collector.wait_time_mean_s() == 4.5

    def test_empty_stream_guards(self):
        collector = MetricsCollector()
        assert collector.wait_time_mean_s() == 0.0
        assert collector.wait_time_p95_s() == 0.0

