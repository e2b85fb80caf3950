"""Endpoint lifecycle dynamics: crash, rejoin, cold starts, offline paths."""

import numpy as np
import pytest

from repro.faas.endpoint import CapacityChange, SimulatedEndpoint
from repro.faas.service import FederatedFaaSService
from repro.sim.kernel import SimulationKernel

from tests.faas.conftest import make_request, small_cluster


@pytest.fixture
def kernel():
    return SimulationKernel()


def make_endpoint(kernel, *, workers=4, cold_penalty=0.0, **kwargs):
    return SimulatedEndpoint(
        "ep1",
        small_cluster(),
        kernel,
        rng=np.random.default_rng(0),
        initial_workers=workers,
        auto_scale=False,
        cold_start_penalty_s=cold_penalty,
        **kwargs,
    )


class TestCrash:
    def test_crash_fails_running_and_queued_tasks(self, kernel):
        endpoint = make_endpoint(kernel, workers=2)
        records = []
        endpoint.add_completion_callback(records.append)
        for i in range(4):  # 2 run, 2 queue
            endpoint.submit(make_request(task_id=f"t{i}", duration=10.0))
        assert endpoint.busy_workers == 2 and endpoint.queued_tasks == 2

        lost = endpoint.crash()
        assert lost == 4
        assert not endpoint.online
        assert endpoint.active_workers == 0 and endpoint.busy_workers == 0
        assert len(records) == 4
        assert all(not r.success for r in records)
        assert all(r.error == "endpoint crashed" for r in records)
        # The cancelled finish events must never fire a completion.
        kernel.run()
        assert len(records) == 4

    def test_crash_is_idempotent(self, kernel):
        endpoint = make_endpoint(kernel)
        assert endpoint.crash() == 0
        assert endpoint.crash() == 0
        assert endpoint.crash_count == 1

    def test_offline_submit_fails_fast(self, kernel):
        endpoint = make_endpoint(kernel)
        endpoint.crash()
        records = []
        endpoint.add_completion_callback(records.append)
        endpoint.submit(make_request(task_id="late"))
        assert len(records) == 1
        assert not records[0].success
        assert records[0].error == "endpoint offline"

    def test_offline_refuses_worker_requests(self, kernel):
        endpoint = make_endpoint(kernel)
        endpoint.crash()
        assert endpoint.request_workers(4) == 0

    def test_provisioning_in_flight_is_voided_by_crash(self, kernel):
        endpoint = make_endpoint(kernel, workers=0)
        requested = endpoint.request_workers(4)
        assert requested > 0
        endpoint.crash()
        kernel.run()  # the provision-arrival event fires after the crash
        assert endpoint.active_workers == 0

    def test_pre_crash_provisioning_does_not_land_after_rejoin(self, kernel):
        endpoint = SimulatedEndpoint(
            "ep1",
            small_cluster(queue_delay=30.0),
            kernel,
            rng=np.random.default_rng(0),
            initial_workers=0,
            auto_scale=False,
        )
        assert endpoint.request_workers(4) > 0
        kernel.schedule(1.0, endpoint.crash)
        kernel.schedule(2.0, endpoint.rejoin, 2)
        kernel.run()  # the pre-crash batch arrives well after the rejoin
        assert endpoint.active_workers == 2  # only the rejoin grant

    def test_scheduled_capacity_change_is_voided_by_crash(self, kernel):
        endpoint = make_endpoint(kernel, workers=4)
        endpoint.set_capacity_schedule([CapacityChange(at_time_s=10.0, delta_workers=16)])
        endpoint.crash()
        kernel.run(until=20.0)
        assert endpoint.active_workers == 0
        assert not endpoint.online

    def test_status_reports_offline(self, kernel):
        endpoint = make_endpoint(kernel)
        endpoint.crash()
        status = endpoint.status()
        assert not status.online
        assert status.active_workers == 0


class TestRejoin:
    def test_rejoin_restores_workers_and_serves_tasks(self, kernel):
        endpoint = make_endpoint(kernel, workers=4)
        endpoint.crash()
        endpoint.rejoin(3)
        assert endpoint.online
        assert endpoint.active_workers == 3
        records = []
        endpoint.add_completion_callback(records.append)
        endpoint.submit(make_request(task_id="back", duration=5.0))
        kernel.run()
        assert len(records) == 1 and records[0].success

    def test_rejoin_defaults_to_max_workers(self, kernel):
        endpoint = make_endpoint(kernel, workers=4)
        endpoint.crash()
        endpoint.rejoin()
        assert endpoint.active_workers == endpoint.max_workers

    def test_rejoin_while_online_is_a_noop(self, kernel):
        endpoint = make_endpoint(kernel, workers=4)
        endpoint.rejoin(1)
        assert endpoint.active_workers == 4


class TestColdStarts:
    def test_cold_window_adds_penalty(self, kernel):
        endpoint = make_endpoint(kernel, workers=1, cold_penalty=3.0)
        endpoint.begin_cold_window(60.0)
        records = []
        endpoint.add_completion_callback(records.append)
        endpoint.submit(make_request(task_id="cold", duration=5.0))
        kernel.run()
        assert records[0].execution_time_s == pytest.approx(8.0)

    def test_warm_after_window_expires(self, kernel):
        endpoint = make_endpoint(kernel, workers=1, cold_penalty=3.0)
        endpoint.begin_cold_window(1.0)
        kernel.schedule(2.0, lambda: None)
        kernel.run()  # move past the window
        records = []
        endpoint.add_completion_callback(records.append)
        endpoint.submit(make_request(task_id="warm", duration=5.0))
        kernel.run()
        assert records[0].execution_time_s == pytest.approx(5.0)

    def test_rejoin_with_penalty_starts_cold(self, kernel):
        endpoint = make_endpoint(kernel, workers=2, cold_penalty=2.0)
        endpoint.crash()
        endpoint.rejoin(2)
        assert endpoint.cold


class TestServiceIntegration:
    def test_service_sees_offline_after_forced_refresh(self, kernel):
        service = FederatedFaaSService(kernel)
        endpoint = make_endpoint(kernel)
        service.register_endpoint(endpoint)
        endpoint.crash()
        # The cached snapshot is stale (still online) until a refresh.
        assert service.endpoint_status("ep1").online
        assert not service.endpoint_status("ep1", force_refresh=True).online

    def test_staleness_interval_can_spike_and_restore(self, kernel):
        service = FederatedFaaSService(kernel)
        base = service.latency.status_refresh_interval_s
        service.set_status_refresh_interval(base * 8)
        assert service.latency.status_refresh_interval_s == base * 8
        service.set_status_refresh_interval(base)
        assert service.latency.status_refresh_interval_s == base
        with pytest.raises(ValueError):
            service.set_status_refresh_interval(0)
