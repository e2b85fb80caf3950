"""Tests for the execution and transfer profilers."""

import pytest

from repro.data.remote_file import GlobusFile
from repro.data.transfer import TransferRequest, TransferResult
from repro.faas.types import TaskExecutionRecord
from repro.monitor.store import HistoryStore, TaskRecord, TransferRecord
from repro.profiling.execution import ExecutionProfiler
from repro.profiling.transfer import TransferProfiler

QIMING_HW = (24.0, 2.6, 64.0)
TAIYI_HW = (40.0, 2.4, 192.0)


def exec_record(fn="simulate", endpoint="qiming", duration=100.0, input_mb=10.0,
                output_mb=5.0, hw=QIMING_HW, success=True):
    return TaskExecutionRecord(
        task_id="t",
        endpoint=endpoint,
        function_name=fn,
        success=success,
        submitted_at=0.0,
        started_at=0.0,
        completed_at=duration,
        input_mb=input_mb,
        output_mb=output_mb,
        cores_per_node=int(hw[0]),
        cpu_freq_ghz=hw[1],
        ram_gb=hw[2],
    )


def transfer_result(src="a", dst="b", size=90.0, duration=1.0, success=True):
    file = GlobusFile("x", size_mb=size, location=src)
    return TransferResult(
        request=TransferRequest(file=file, src=src, dst=dst),
        success=success,
        started_at=0.0,
        completed_at=duration,
    )


class TestExecutionProfiler:
    def test_unknown_function_returns_default(self):
        profiler = ExecutionProfiler()
        assert profiler.predict_execution_time("nope", 1.0, QIMING_HW) is None
        assert profiler.predict_execution_time("nope", 1.0, QIMING_HW, default=5.0) == 5.0
        assert profiler.predict_output_mb("nope", 1.0, QIMING_HW, default=2.0) == 2.0

    def test_mean_prediction_before_training(self):
        profiler = ExecutionProfiler(min_samples_to_train=100)
        profiler.observe(exec_record(duration=10.0))
        profiler.observe(exec_record(duration=20.0))
        predicted = profiler.predict_execution_time("simulate", 10.0, QIMING_HW)
        assert predicted == pytest.approx(15.0)

    def test_model_learns_input_size_dependence(self):
        profiler = ExecutionProfiler(min_samples_to_train=3)
        for size in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0):
            profiler.observe(exec_record(duration=2.0 * size, input_mb=size))
        assert profiler.update_models() == 1
        small = profiler.predict_execution_time("simulate", 5.0, QIMING_HW)
        large = profiler.predict_execution_time("simulate", 180.0, QIMING_HW)
        assert large > small

    def test_model_learns_endpoint_heterogeneity(self):
        profiler = ExecutionProfiler(min_samples_to_train=3)
        for _ in range(10):
            profiler.observe(exec_record(endpoint="qiming", duration=100.0, hw=QIMING_HW))
            profiler.observe(exec_record(endpoint="taiyi", duration=60.0, hw=TAIYI_HW))
        profiler.update_models()
        on_qiming = profiler.predict_execution_time("simulate", 10.0, QIMING_HW)
        on_taiyi = profiler.predict_execution_time("simulate", 10.0, TAIYI_HW)
        assert on_taiyi < on_qiming

    def test_failed_records_ignored(self):
        profiler = ExecutionProfiler()
        profiler.observe(exec_record(success=False))
        assert profiler.sample_count("simulate") == 0

    def test_warm_start_from_history(self):
        store = HistoryStore()
        for d in (10.0, 12.0, 14.0):
            store.add_task_record(
                TaskRecord(
                    function_name="fp",
                    endpoint="qiming",
                    input_mb=1.0,
                    output_mb=0.5,
                    execution_time_s=d,
                    cores_per_node=24,
                    cpu_freq_ghz=2.6,
                    ram_gb=64,
                    success=True,
                    timestamp=0.0,
                )
            )
        profiler = ExecutionProfiler(store=store)
        assert profiler.sample_count("fp") == 3
        assert profiler.predict_execution_time("fp", 1.0, QIMING_HW) == pytest.approx(12.0, rel=0.3)

    def test_update_models_only_retrains_on_new_data(self):
        profiler = ExecutionProfiler(min_samples_to_train=2)
        profiler.observe(exec_record(duration=10.0))
        profiler.observe(exec_record(duration=12.0))
        assert profiler.update_models() == 1
        assert profiler.update_models() == 0
        profiler.observe(exec_record(duration=14.0))
        assert profiler.update_models() == 1

    def test_predictions_non_negative(self):
        profiler = ExecutionProfiler(min_samples_to_train=2)
        profiler.observe(exec_record(duration=0.001, input_mb=0.0))
        profiler.observe(exec_record(duration=0.002, input_mb=0.0))
        profiler.update_models()
        assert profiler.predict_execution_time("simulate", 0.0, QIMING_HW) >= 0.0

    def test_invalid_min_samples(self):
        with pytest.raises(ValueError):
            ExecutionProfiler(min_samples_to_train=0)


class TestTransferProfiler:
    def test_default_bandwidth_fallback(self):
        profiler = TransferProfiler()
        assert profiler.predict_transfer_time("a", "b", 200.0) == pytest.approx(2.0)
        assert profiler.predict_transfer_time("a", "a", 200.0) == 0.0
        assert profiler.predict_transfer_time("a", "b", 0.0) == 0.0

    def test_bandwidth_estimate_from_observations(self):
        profiler = TransferProfiler(min_samples_to_train=100)
        profiler.observe(transfer_result(size=90.0, duration=1.0))
        profiler.observe(transfer_result(size=180.0, duration=2.0))
        assert profiler.predict_transfer_time("a", "b", 900.0) == pytest.approx(10.0)

    def test_polynomial_model_after_training(self):
        profiler = TransferProfiler(min_samples_to_train=3)
        for size in (10.0, 50.0, 100.0, 200.0, 400.0, 800.0):
            profiler.observe(transfer_result(size=size, duration=2.0 + size / 90.0))
        assert profiler.update_models() == 1
        predicted = profiler.predict_transfer_time("a", "b", 500.0)
        assert predicted == pytest.approx(2.0 + 500.0 / 90.0, rel=0.15)

    def test_reverse_direction_used_when_unseen(self):
        profiler = TransferProfiler(min_samples_to_train=100)
        profiler.observe(transfer_result(src="a", dst="b", size=90.0, duration=1.0))
        assert profiler.predict_transfer_time("b", "a", 90.0) == pytest.approx(1.0)

    def test_seed_bandwidth_gives_full_knowledge(self):
        profiler = TransferProfiler()
        profiler.seed_bandwidth("taiyi", "qiming", bandwidth_mbps=400.0)
        assert profiler.predict_transfer_time("taiyi", "qiming", 400.0) == pytest.approx(1.0)
        assert profiler.sample_count("taiyi", "qiming") == 3

    def test_failed_transfers_ignored(self):
        profiler = TransferProfiler()
        profiler.observe(transfer_result(success=False))
        assert profiler.sample_count("a", "b") == 0

    def test_warm_start_from_history(self):
        store = HistoryStore()
        store.add_transfer_record(
            TransferRecord(
                src="a", dst="b", size_mb=90.0, duration_s=1.0,
                mechanism="globus", concurrency=1, success=True, timestamp=0.0,
            )
        )
        profiler = TransferProfiler(store=store)
        assert profiler.sample_count("a", "b") == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TransferProfiler(min_samples_to_train=0)
        with pytest.raises(ValueError):
            TransferProfiler().seed_bandwidth("a", "b", bandwidth_mbps=0.0)
