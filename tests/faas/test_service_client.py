"""Tests for the federated FaaS service facade and the fabric's batching."""

import numpy as np
import pytest

from repro.core.exceptions import EndpointError
from repro.faas.endpoint import SimulatedEndpoint
from repro.faas.fabric import SimulatedFabric
from repro.faas.service import FederatedFaaSService
from repro.faas.types import ServiceLatencyModel, TaskExecutionRecord
from repro.scenarios.presets import SCENARIOS
from repro.scenarios.spec import run_scenario
from repro.sim.kernel import SimulationKernel

from tests.faas.conftest import make_request, small_cluster


def make_service(kernel, **latency_kwargs):
    defaults = dict(
        submit_latency_s=0.004,
        dispatch_latency_s=0.1,
        result_poll_latency_s=0.05,
        endpoint_overhead_s=0.0,
        status_refresh_interval_s=60.0,
    )
    defaults.update(latency_kwargs)
    return FederatedFaaSService(kernel, latency=ServiceLatencyModel(**defaults))


def add_endpoint(service, kernel, name="ep1", workers=4):
    ep = SimulatedEndpoint(
        name,
        small_cluster(name=name),
        kernel,
        rng=np.random.default_rng(0),
        initial_workers=workers,
        auto_scale=False,
    )
    uuid = service.register_endpoint(ep)
    return ep, uuid


def collect(service):
    """The results the service pushes to its callbacks, as they arrive."""
    delivered = []
    service.add_result_callback(delivered.append)
    return delivered


class TestRegistration:
    def test_register_returns_uuid(self):
        kernel = SimulationKernel()
        service = make_service(kernel)
        ep, uuid = add_endpoint(service, kernel)
        assert uuid == "ep-0001-ep1"
        assert service.endpoint("ep1") is ep
        assert service.endpoint_names() == ["ep1"]

    def test_duplicate_registration_rejected(self):
        kernel = SimulationKernel()
        service = make_service(kernel)
        add_endpoint(service, kernel)
        with pytest.raises(EndpointError):
            add_endpoint(service, kernel)

    def test_unknown_endpoint_rejected(self):
        kernel = SimulationKernel()
        service = make_service(kernel)
        with pytest.raises(EndpointError):
            service.endpoint("missing")


class TestSubmissionPath:
    def test_dispatch_latency_delays_execution_start(self):
        kernel = SimulationKernel()
        service = make_service(kernel, submit_latency_s=0.004, dispatch_latency_s=0.174)
        add_endpoint(service, kernel)
        results = collect(service)
        service.submit("ep1", make_request(duration=1.0))
        kernel.run()
        assert len(results) == 1
        assert results[0].started_at == pytest.approx(0.178)
        # submitted_at records the client-side submission time.
        assert results[0].submitted_at == 0.0

    def test_result_visible_after_poll_latency(self):
        kernel = SimulationKernel()
        service = make_service(
            kernel, submit_latency_s=0.0, dispatch_latency_s=0.0, result_poll_latency_s=0.117
        )
        add_endpoint(service, kernel)
        delivered = []
        service.add_result_callback(delivered.append)
        service.submit("ep1", make_request(duration=1.0))
        kernel.run(until=1.05)
        assert delivered == []  # completed but not yet visible
        kernel.run()
        assert len(delivered) == 1
        assert kernel.clock.now == pytest.approx(1.117)

    def test_batch_submission_delivers_all(self):
        kernel = SimulationKernel()
        service = make_service(kernel)
        add_endpoint(service, kernel, workers=8)
        results = collect(service)
        service.submit_batch("ep1", [make_request(task_id=f"t{i}", duration=1.0) for i in range(5)])
        kernel.run()
        assert len(results) == 5
        assert service.submitted_count == 5

    def test_every_callback_sees_every_result_once(self):
        kernel = SimulationKernel()
        service = make_service(kernel)
        add_endpoint(service, kernel, workers=8)
        first, second = collect(service), collect(service)
        for i in range(4):
            service.submit("ep1", make_request(task_id=f"t{i}", duration=1.0))
        kernel.run()
        assert sorted(r.task_id for r in first) == ["t0", "t1", "t2", "t3"]
        assert first == second


def test_a_streaming_run_leaves_the_service_holding_no_record(monkeypatch):
    # Results reach the fabric by callback; the service keeps none of them.
    services = []
    init = SimulatedFabric.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self.service)

    monkeypatch.setattr(SimulatedFabric, "__init__", spy)
    result = run_scenario(SCENARIOS["stream-steady"])
    assert result.completed_tasks > 0
    (service,) = services
    assert isinstance(service, FederatedFaaSService)

    def holds_a_record(value):
        if isinstance(value, TaskExecutionRecord):
            return True
        if isinstance(value, dict):
            value = list(value.values())
        return isinstance(value, (list, tuple, set)) and any(map(holds_a_record, value))

    assert not any(map(holds_a_record, vars(service).values()))


class TestStatusStaleness:
    def test_status_is_cached_until_refresh_interval(self):
        kernel = SimulationKernel()
        service = make_service(kernel, status_refresh_interval_s=60.0)
        ep, _ = add_endpoint(service, kernel, workers=4)
        initial = service.endpoint_status("ep1")
        assert initial.busy_workers == 0

        service.submit("ep1", make_request(duration=1000.0))
        kernel.run(until=10.0)
        # The genuine endpoint is busy but the service still serves the stale snapshot.
        assert ep.busy_workers == 1
        stale = service.endpoint_status("ep1")
        assert stale.busy_workers == 0

        kernel.run(until=70.0)
        fresh = service.endpoint_status("ep1")
        assert fresh.busy_workers == 1

    def test_force_refresh_bypasses_cache(self):
        kernel = SimulationKernel()
        service = make_service(kernel, status_refresh_interval_s=1e6)
        ep, _ = add_endpoint(service, kernel, workers=4)
        service.submit("ep1", make_request(duration=1000.0))
        kernel.run(until=10.0)
        assert service.endpoint_status("ep1").busy_workers == 0
        assert service.endpoint_status("ep1", force_refresh=True).busy_workers == 1


class TestBatchedSubmission:
    """The simulated fabric holds requests per endpoint and sends a batch as
    one service round-trip."""

    def make(self, batch_size, names=("ep1",), workers=4):
        kernel = SimulationKernel()
        service = make_service(kernel)
        for name in names:
            add_endpoint(service, kernel, name=name, workers=workers)
        calls = []
        submit, submit_batch = service.submit, service.submit_batch
        service.submit = lambda name, request: (
            calls.append(("submit", name, [request.task_id])), submit(name, request)
        )
        service.submit_batch = lambda name, requests: (
            calls.append(("submit_batch", name, [r.task_id for r in requests])),
            submit_batch(name, requests),
        )
        return kernel, SimulatedFabric(kernel, service, batch_size=batch_size), calls

    def test_a_full_batch_is_one_submit_batch(self):
        kernel, fabric, calls = self.make(batch_size=4, workers=16)
        for i in range(8):
            fabric.submit("ep1", make_request(task_id=f"t{i}", duration=1.0))
        assert calls == [
            ("submit_batch", "ep1", ["t0", "t1", "t2", "t3"]),
            ("submit_batch", "ep1", ["t4", "t5", "t6", "t7"]),
        ]
        records = []
        while fabric.pending_work():
            records.extend(fabric.process())
        assert len(records) == 8

    def test_a_flushed_single_request_goes_through_submit(self):
        kernel, fabric, calls = self.make(batch_size=100)
        fabric.submit("ep1", make_request(duration=1.0))
        assert calls == []
        fabric.flush()
        assert calls == [("submit", "ep1", ["t1"])]
        records = []
        while fabric.pending_work():
            records.extend(fabric.process())
        assert len(records) == 1

    def test_pending_work_sees_a_queued_batch(self):
        kernel, fabric, calls = self.make(batch_size=100)
        assert not fabric.pending_work()
        fabric.submit("ep1", make_request(duration=1.0))
        fabric._outstanding = 0  # only the queued batch is left to report
        assert calls == [] and kernel.pending_events == 0
        assert fabric.pending_work()

    def test_batches_kept_per_endpoint(self):
        kernel, fabric, calls = self.make(batch_size=2, names=("a", "b"))
        fabric.submit("a", make_request(task_id="t1", duration=1.0))
        fabric.submit("b", make_request(task_id="t2", duration=1.0))
        assert calls == []
        fabric.submit("a", make_request(task_id="t3", duration=1.0))
        assert calls == [("submit_batch", "a", ["t1", "t3"])]  # a flushed, b still held
        fabric.flush()
        assert calls == [("submit_batch", "a", ["t1", "t3"]), ("submit", "b", ["t2"])]

    def test_invalid_batch_size(self):
        kernel = SimulationKernel()
        service = make_service(kernel)
        with pytest.raises(ValueError):
            SimulatedFabric(kernel, service, batch_size=0)


class TestLatencyModelValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ServiceLatencyModel(submit_latency_s=-0.1)

    def test_nonpositive_refresh_rejected(self):
        with pytest.raises(ValueError):
            ServiceLatencyModel(status_refresh_interval_s=0.0)
