"""Tests for the history store."""

from repro.monitor.store import HistoryStore, TaskRecord, TransferRecord


def task_record(fn="fp", endpoint="qiming", t=1.0, input_mb=1.0, success=True, ts=0.0):
    return TaskRecord(
        function_name=fn,
        endpoint=endpoint,
        input_mb=input_mb,
        output_mb=0.5,
        execution_time_s=t,
        cores_per_node=24,
        cpu_freq_ghz=2.6,
        ram_gb=64,
        success=success,
        timestamp=ts,
    )


def transfer_record(src="a", dst="b", size=10.0, d=1.0, success=True, ts=0.0):
    return TransferRecord(
        src=src,
        dst=dst,
        size_mb=size,
        duration_s=d,
        mechanism="globus",
        concurrency=1,
        success=success,
        timestamp=ts,
    )


class TestTaskRecords:
    def test_roundtrip(self):
        store = HistoryStore()
        store.add_task_record(task_record(t=3.0))
        records = store.task_records()
        assert len(records) == 1
        assert records[0].execution_time_s == 3.0
        assert records[0].success

    def test_filter_by_function_and_endpoint(self):
        store = HistoryStore()
        store.add_task_record(task_record(fn="a", endpoint="x"))
        store.add_task_record(task_record(fn="a", endpoint="y"))
        store.add_task_record(task_record(fn="b", endpoint="x"))
        assert len(store.task_records(function_name="a")) == 2
        assert len(store.task_records(function_name="a", endpoint="x")) == 1
        assert store.task_count("a") == 2
        assert store.task_count() == 3

    def test_successful_only_filter(self):
        store = HistoryStore()
        store.add_task_record(task_record(success=True))
        store.add_task_record(task_record(success=False))
        assert len(store.task_records()) == 1
        assert len(store.task_records(successful_only=False)) == 2

    def test_limit_and_ordering(self):
        store = HistoryStore()
        for i in range(5):
            store.add_task_record(task_record(ts=float(i)))
        latest = store.task_records(limit=2)
        assert len(latest) == 2
        assert latest[0].timestamp == 4.0

    def test_function_names(self):
        store = HistoryStore()
        store.add_task_record(task_record(fn="b"))
        store.add_task_record(task_record(fn="a"))
        assert store.function_names() == ["a", "b"]


class TestTransferRecords:
    def test_roundtrip_and_pairs(self):
        store = HistoryStore()
        store.add_transfer_record(transfer_record(src="a", dst="b"))
        store.add_transfer_record(transfer_record(src="b", dst="c"))
        assert store.transfer_count() == 2
        assert store.endpoint_pairs() == [("a", "b"), ("b", "c")]
        assert len(store.transfer_records(src="a")) == 1
        assert len(store.transfer_records(dst="c")) == 1

    def test_successful_only(self):
        store = HistoryStore()
        store.add_transfer_record(transfer_record(success=False))
        assert store.transfer_records() == []
        assert len(store.transfer_records(successful_only=False)) == 1


class TestPersistence:
    def test_file_backed_store_survives_reopen(self, tmp_path):
        path = str(tmp_path / "history.db")
        store = HistoryStore(path)
        store.add_task_record(task_record())
        store.close()
        reopened = HistoryStore(path)
        assert reopened.task_count() == 1
        reopened.close()

    def test_rows_reach_another_connection_at_flush_not_per_row(self, tmp_path):
        path = str(tmp_path / "history.db")
        writer, reader = HistoryStore(path), HistoryStore(path)
        writer.add_task_record(task_record())
        writer.add_transfer_record(transfer_record())
        assert writer.task_count() == 1  # its own reads see the row at once
        assert reader.task_count() == 0 and reader.transfer_count() == 0
        writer.flush()
        assert reader.task_count() == 1 and reader.transfer_count() == 1
        writer.close()
        reader.close()

    def test_clear(self):
        store = HistoryStore()
        store.add_task_record(task_record())
        store.add_transfer_record(transfer_record())
        store.clear()
        assert store.task_count() == 0
        assert store.transfer_count() == 0
