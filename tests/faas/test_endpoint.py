"""Tests for the simulated funcX-style endpoint."""

import numpy as np
import pytest

from repro.core.exceptions import EndpointError
from repro.faas.endpoint import CapacityChange, SimulatedEndpoint
from repro.faas.types import TaskExecutionRequest

from tests.faas.conftest import make_request, small_cluster


def make_endpoint(kernel, **kwargs):
    defaults = dict(
        rng=np.random.default_rng(0),
        initial_workers=4,
        auto_scale=False,
    )
    defaults.update(kwargs)
    cluster = defaults.pop("cluster", small_cluster())
    return SimulatedEndpoint("ep1", cluster, kernel, **defaults)


class TestExecution:
    def test_single_task_completes_after_duration(self, kernel):
        ep = make_endpoint(kernel)
        records = []
        ep.add_completion_callback(records.append)
        ep.submit(make_request(duration=10.0))
        kernel.run()
        assert len(records) == 1
        record = records[0]
        assert record.success
        assert record.completed_at == pytest.approx(10.0)
        assert record.execution_time_s == pytest.approx(10.0)
        assert ep.completed_count == 1

    def test_duration_scaled_by_speed_factor(self, kernel):
        ep = make_endpoint(kernel, cluster=small_cluster(speed=2.0))
        records = []
        ep.add_completion_callback(records.append)
        ep.submit(make_request(duration=10.0))
        kernel.run()
        assert records[0].completed_at == pytest.approx(5.0)

    def test_execution_overhead_added(self, kernel):
        ep = make_endpoint(kernel, execution_overhead_s=0.5)
        records = []
        ep.add_completion_callback(records.append)
        ep.submit(make_request(duration=10.0))
        kernel.run()
        assert records[0].completed_at == pytest.approx(10.5)

    def test_tasks_queue_when_workers_busy(self, kernel):
        ep = make_endpoint(kernel, initial_workers=1)
        records = []
        ep.add_completion_callback(records.append)
        ep.submit(make_request(task_id="a", duration=10.0))
        ep.submit(make_request(task_id="b", duration=10.0))
        assert ep.queued_tasks == 1
        kernel.run()
        assert [r.task_id for r in records] == ["a", "b"]
        assert records[1].completed_at == pytest.approx(20.0)
        assert records[1].started_at - records[1].submitted_at == pytest.approx(10.0)

    def test_parallel_execution_on_multiple_workers(self, kernel):
        ep = make_endpoint(kernel, initial_workers=4)
        records = []
        ep.add_completion_callback(records.append)
        for i in range(4):
            ep.submit(make_request(task_id=f"t{i}", duration=10.0))
        kernel.run()
        assert all(r.completed_at == pytest.approx(10.0) for r in records)

    def test_multicore_task_occupies_workers(self, kernel):
        ep = make_endpoint(kernel, initial_workers=4)
        ep.submit(make_request(task_id="big", duration=10.0, cores=3))
        ep.submit(make_request(task_id="small", duration=5.0, cores=2))
        assert ep.busy_workers == 3
        assert ep.queued_tasks == 1  # not enough idle workers for 2 more cores
        kernel.run(until=0.0)
        records = []
        ep.add_completion_callback(records.append)
        kernel.run()
        assert [r.task_id for r in records] == ["big", "small"]

    def test_request_without_duration_rejected(self, kernel):
        ep = make_endpoint(kernel)
        request = TaskExecutionRequest(task_id="x", function_name="f")
        with pytest.raises(EndpointError):
            ep.submit(request)

    def test_record_carries_hardware_features(self, kernel):
        ep = make_endpoint(kernel)
        records = []
        ep.add_completion_callback(records.append)
        ep.submit(make_request(input_mb=12.0, output_mb=3.0))
        kernel.run()
        r = records[0]
        assert r.input_mb == 12.0
        assert r.output_mb == 3.0
        assert r.cores_per_node == ep.cluster.hardware.cores_per_node
        assert r.worker_id.startswith("ep1-worker-")

    def test_busy_core_seconds_accumulates(self, kernel):
        ep = make_endpoint(kernel)
        ep.submit(make_request(task_id="a", duration=10.0))
        ep.submit(make_request(task_id="b", duration=5.0))
        kernel.run()
        assert ep.busy_core_seconds == pytest.approx(15.0)


class TestFailureInjection:
    def test_all_tasks_fail_at_rate_one(self, kernel):
        ep = make_endpoint(kernel, failure_rate=1.0)
        records = []
        ep.add_completion_callback(records.append)
        ep.submit(make_request(output_mb=5.0))
        kernel.run()
        assert not records[0].success
        assert records[0].error is not None
        assert records[0].output_mb == 0.0
        assert ep.failed_count == 1

    def test_failure_rate_statistics(self, kernel):
        ep = make_endpoint(kernel, failure_rate=0.3, initial_workers=16, cluster=small_cluster(num_nodes=8))
        records = []
        ep.add_completion_callback(records.append)
        for i in range(200):
            ep.submit(make_request(task_id=f"t{i}", duration=1.0))
        kernel.run()
        failures = sum(1 for r in records if not r.success)
        assert 30 < failures < 90


class TestStatus:
    def test_status_snapshot(self, kernel):
        ep = make_endpoint(kernel, initial_workers=3)
        ep.submit(make_request(duration=10.0))
        status = ep.status()
        assert status.endpoint == "ep1"
        assert status.active_workers == 3
        assert status.busy_workers == 1
        assert status.idle_workers == 2
        assert status.pending_tasks == 0
        assert status.free_capacity == 2

    def test_utilization(self, kernel):
        ep = make_endpoint(kernel, initial_workers=4)
        assert ep.utilization == 0.0
        ep.submit(make_request(duration=10.0))
        assert ep.utilization == pytest.approx(0.25)


class TestScaling:
    def test_request_workers_respects_max(self, kernel):
        ep = make_endpoint(kernel, initial_workers=0, max_workers=8)
        granted = ep.request_workers(100)
        assert granted == 8
        kernel.run()
        assert ep.active_workers == 8

    def test_request_workers_node_granularity(self, kernel):
        # workers_per_node=4, asking for 1 worker provisions a whole node.
        ep = make_endpoint(kernel, initial_workers=0)
        assert ep.request_workers(1) == 4
        kernel.run()
        assert ep.active_workers == 4

    def test_provisioning_delay_applied(self, kernel):
        ep = make_endpoint(
            kernel, initial_workers=0, cluster=small_cluster(queue_delay=50.0)
        )
        ep.request_workers(4)
        kernel.run(until=10.0)
        assert ep.active_workers == 0
        kernel.run()
        assert ep.active_workers == 4

    def test_release_idle_workers(self, kernel):
        ep = make_endpoint(kernel, initial_workers=4)
        ep.submit(make_request(duration=100.0))
        released = ep.release_idle_workers()
        assert released == 3
        assert ep.active_workers == 1
        assert ep.busy_workers == 1

    def test_release_partial(self, kernel):
        ep = make_endpoint(kernel, initial_workers=4)
        assert ep.release_idle_workers(2) == 2
        assert ep.active_workers == 2

    def test_auto_scale_out_on_demand(self, kernel):
        ep = make_endpoint(kernel, initial_workers=0, auto_scale=True)
        records = []
        ep.add_completion_callback(records.append)
        for i in range(6):
            ep.submit(make_request(task_id=f"t{i}", duration=5.0))
        kernel.run()
        assert len(records) == 6
        assert ep.active_workers >= 6  # scaled out to meet demand

    def test_auto_scale_in_after_idle(self, kernel):
        ep = make_endpoint(
            kernel, initial_workers=0, auto_scale=True, idle_shutdown_s=30.0
        )
        ep.submit(make_request(duration=5.0))
        kernel.run(until=200.0)
        assert ep.active_workers == 0

    def test_no_scale_in_while_busy(self, kernel):
        ep = make_endpoint(
            kernel, initial_workers=4, auto_scale=True, idle_shutdown_s=10.0
        )
        ep.submit(make_request(duration=500.0))
        kernel.run(until=100.0)
        assert ep.active_workers >= 1
        assert ep.busy_workers == 1


class TestCapacityChanges:
    def test_capacity_increase_starts_queued_tasks(self, kernel):
        ep = make_endpoint(kernel, initial_workers=1, max_workers=1)
        records = []
        ep.add_completion_callback(records.append)
        ep.submit(make_request(task_id="a", duration=100.0))
        ep.submit(make_request(task_id="b", duration=100.0))
        ep.set_capacity_schedule([CapacityChange(at_time_s=50.0, delta_workers=1)])
        kernel.run()
        by_id = {r.task_id: r for r in records}
        assert by_id["a"].completed_at == pytest.approx(100.0)
        assert by_id["b"].started_at == pytest.approx(50.0)

    def test_capacity_decrease_removes_idle_workers(self, kernel):
        ep = make_endpoint(kernel, initial_workers=4)
        ep.apply_capacity_change(-2)
        assert ep.active_workers == 2

    def test_capacity_decrease_drains_busy_workers(self, kernel):
        ep = make_endpoint(kernel, initial_workers=2)
        ep.submit(make_request(task_id="a", duration=10.0))
        ep.submit(make_request(task_id="b", duration=10.0))
        ep.apply_capacity_change(-2)
        # Both workers are busy; they finish their tasks then retire.
        assert ep.active_workers == 2
        kernel.run()
        assert ep.active_workers == 0
        assert ep.completed_count == 2

    def test_capacity_change_validation(self):
        with pytest.raises(ValueError):
            CapacityChange(at_time_s=-1.0, delta_workers=1)
        with pytest.raises(ValueError):
            CapacityChange(at_time_s=1.0, delta_workers=0)


class TestConstruction:
    def test_invalid_initial_workers(self, kernel):
        with pytest.raises(EndpointError):
            make_endpoint(kernel, initial_workers=-1)

    def test_initial_workers_above_max_rejected(self, kernel):
        with pytest.raises(EndpointError):
            make_endpoint(kernel, initial_workers=100, max_workers=4)
