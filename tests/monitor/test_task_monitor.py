"""Tests for the task monitor."""

import pytest

from repro.data.remote_file import GlobusFile
from repro.data.transfer import TransferRequest, TransferResult
from repro.faas.types import TaskExecutionRecord
from repro.monitor.store import HistoryStore
from repro.monitor.task_monitor import TaskMonitor


def record(task_id="t1", endpoint="ep1", fn="work", success=True, start=0.0, end=5.0):
    return TaskExecutionRecord(
        task_id=task_id,
        endpoint=endpoint,
        function_name=fn,
        success=success,
        submitted_at=0.0,
        started_at=start,
        completed_at=end,
        input_mb=2.0,
        output_mb=1.0,
        cores_per_node=24,
        cpu_freq_ghz=2.6,
        ram_gb=64,
    )


def transfer_result(src="a", dst="b", size=10.0, success=True):
    file = GlobusFile("x", size_mb=size, location=src)
    request = TransferRequest(file=file, src=src, dst=dst)
    return TransferResult(request=request, success=success, started_at=0.0, completed_at=2.0)


class TestTaskObservation:
    def test_records_streamed_to_store_and_listeners(self):
        monitor = TaskMonitor(HistoryStore())
        seen = []
        monitor.add_task_listener(seen.append)
        monitor.observe_task(record())
        assert monitor.records_seen == 1
        assert len(seen) == 1
        assert monitor.store.task_count() == 1


class TestSuccessRates:
    def test_success_rate_tracking(self):
        monitor = TaskMonitor()
        monitor.observe_task(record(endpoint="good"))
        monitor.observe_task(record(endpoint="good"))
        monitor.observe_task(record(endpoint="bad", success=False))
        monitor.observe_task(record(endpoint="bad"))
        assert monitor.success_rate("good") == 1.0
        assert monitor.success_rate("bad") == pytest.approx(0.5)
        assert monitor.success_rate("unseen") == 1.0

    def test_most_reliable_endpoint(self):
        monitor = TaskMonitor()
        monitor.observe_task(record(endpoint="a", success=False))
        monitor.observe_task(record(endpoint="b"))
        assert monitor.most_reliable_endpoint(["a", "b"]) == "b"
        with pytest.raises(ValueError):
            monitor.most_reliable_endpoint([])


class TestTransferObservation:
    def test_transfer_records_stored(self):
        monitor = TaskMonitor(HistoryStore())
        monitor.observe_transfer(transfer_result(), concurrency=2)
        assert monitor.store.transfer_count() == 1
        stored = monitor.store.transfer_records()[0]
        assert stored.concurrency == 2
        assert stored.duration_s == pytest.approx(2.0)


class TestNoStore:
    def test_without_a_store_observations_reach_listeners_only(self):
        monitor = TaskMonitor(None)
        seen = []
        monitor.add_task_listener(seen.append)
        monitor.observe_task(record())
        monitor.observe_transfer(transfer_result())
        assert monitor.store is None
        assert len(seen) == 1 and monitor.records_seen == 1
