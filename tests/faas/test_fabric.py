"""Tests for the execution fabric abstractions (simulated and local)."""

import time

import numpy as np
import pytest

from repro.core.dag import Task, TaskGraph
from repro.core.exceptions import EndpointError
from repro.core.functions import SimProfile, function
from repro.core.futures import UniFuture
from repro.faas.endpoint import SimulatedEndpoint
from repro.faas.fabric import SimulatedFabric
from repro.faas.local import LocalEndpoint, LocalFabric
from repro.faas.service import FederatedFaaSService
from repro.faas.types import ServiceLatencyModel
from repro.sim.kernel import SimulationKernel

from tests.faas.conftest import small_cluster


@function(sim_profile=SimProfile(base_time_s=10.0, output_base_mb=5.0))
def sim_work(x=None):
    return x


@function
def real_add(a, b):
    return a + b


@function
def real_fail():
    raise RuntimeError("intentional failure")


def new_task(fn, *args, **kwargs):
    """A task of ``fn``, inserted into a graph of its own (a request reads
    its store row)."""
    return TaskGraph().add_task(Task(function=fn, args=args, kwargs=kwargs))


def build_sim_fabric(n_endpoints=2, workers=4, speed=1.0):
    kernel = SimulationKernel()
    latency = ServiceLatencyModel(
        submit_latency_s=0.0, dispatch_latency_s=0.0, result_poll_latency_s=0.0
    )
    service = FederatedFaaSService(kernel, latency=latency)
    for i in range(n_endpoints):
        ep = SimulatedEndpoint(
            f"ep{i}",
            small_cluster(name=f"ep{i}", speed=speed),
            kernel,
            rng=np.random.default_rng(i),
            initial_workers=workers,
            auto_scale=False,
        )
        service.register_endpoint(ep)
    fabric = SimulatedFabric(kernel, service, batch_size=8)
    return kernel, service, fabric


class TestSimulatedFabric:
    def test_topology_queries(self):
        _, _, fabric = build_sim_fabric(speed=1.5)
        assert fabric.endpoint_names() == ["ep0", "ep1"]
        assert fabric.speed_factor("ep0") == 1.5
        assert fabric.true_status("ep0").active_workers == 4

    def test_build_request_from_sim_profile(self):
        _, _, fabric = build_sim_fabric()
        task = new_task(sim_work)
        request = fabric.build_request(task)
        assert request.task_id == task.task_id
        assert request.sim_duration_s == pytest.approx(10.0)
        assert request.sim_output_mb == pytest.approx(5.0)

    def test_submit_and_process_roundtrip(self):
        kernel, _, fabric = build_sim_fabric()
        task = new_task(sim_work)
        fabric.submit("ep0", fabric.build_request(task))
        fabric.flush()
        records = []
        while fabric.pending_work():
            records.extend(fabric.process())
        assert len(records) == 1
        assert records[0].task_id == task.task_id
        assert records[0].success
        assert kernel.clock.now == pytest.approx(10.0)
        assert not fabric.pending_work()

    def test_unflushed_batches_get_forced_out(self):
        # A single task with a large batch size would otherwise never leave
        # the FaaS client; process() flushes when the kernel goes idle.
        _, _, fabric = build_sim_fabric()
        task = new_task(sim_work)
        fabric.submit("ep0", fabric.build_request(task))
        records = []
        for _ in range(100):
            records.extend(fabric.process())
            if not fabric.pending_work():
                break
        assert len(records) == 1

    def test_submit_unknown_endpoint(self):
        _, _, fabric = build_sim_fabric()
        task = new_task(sim_work)
        with pytest.raises(EndpointError):
            fabric.submit("nope", fabric.build_request(task))

    def test_worker_counts_are_the_true_status(self):
        kernel, _, fabric = build_sim_fabric()
        fabric.submit("ep1", fabric.build_request(new_task(sim_work)))
        fabric.flush()
        kernel.run(until=kernel.clock.now + 1.0)
        counts = fabric.worker_counts()
        assert list(counts) == fabric.endpoint_names()
        for name, (active, busy) in counts.items():
            status = fabric.true_status(name)
            assert (active, busy) == (status.active_workers, status.busy_workers)
        assert counts == {"ep0": (4, 0), "ep1": (4, 1)}

    def test_scaling_passthrough(self):
        kernel, service, fabric = build_sim_fabric(workers=0)
        granted = fabric.request_workers("ep0", 4)
        assert granted == 4
        kernel.run()
        assert fabric.true_status("ep0").active_workers == 4
        assert fabric.release_idle_workers("ep0", 2) == 2


class TestLocalFabric:
    def test_real_execution(self):
        fabric = LocalFabric([LocalEndpoint("local", max_workers=2)])
        task = new_task(real_add, 2, 3)
        fabric.submit("local", fabric.build_request(task))
        records = []
        deadline = time.time() + 5.0
        while not records and time.time() < deadline:
            records.extend(fabric.process())
        assert len(records) == 1
        assert records[0].success
        assert records[0].result == 5
        assert not fabric.pending_work()
        fabric.shutdown()

    def test_failure_captured(self):
        fabric = LocalFabric([LocalEndpoint("local", max_workers=1)])
        task = new_task(real_fail)
        fabric.submit("local", fabric.build_request(task))
        records = []
        deadline = time.time() + 5.0
        while not records and time.time() < deadline:
            records.extend(fabric.process())
        assert len(records) == 1
        assert not records[0].success
        assert "intentional failure" in records[0].error
        fabric.shutdown()

    def test_build_request_resolves_future_arguments(self):
        fabric = LocalFabric([LocalEndpoint("local", max_workers=1)])
        done, pending = UniFuture(task_id="done"), UniFuture(task_id="pending")
        done.set_result(2)
        try:
            request = fabric.build_request(new_task(real_add, done, b=3))
            assert (request.args, request.kwargs) == ((2,), {"b": 3})
            # A future without a result yet is passed through as it is.
            request = fabric.build_request(new_task(real_add, pending, 3))
            assert request.args == (pending, 3)
        finally:
            fabric.shutdown()

    def test_local_request_requires_callable(self):
        endpoint = LocalEndpoint("local", max_workers=1)
        fabric = LocalFabric([endpoint])
        from repro.faas.types import TaskExecutionRequest

        with pytest.raises(EndpointError):
            endpoint.submit(
                TaskExecutionRequest(task_id="x", function_name="f"),
                fabric.clock,
                fabric._results,
            )
        fabric.shutdown()

    def test_duplicate_endpoint_rejected(self):
        fabric = LocalFabric([LocalEndpoint("local")])
        with pytest.raises(EndpointError):
            fabric.add_endpoint(LocalEndpoint("local"))
        fabric.shutdown()

    def test_status_and_speed(self):
        fabric = LocalFabric([LocalEndpoint("local", max_workers=3, speed_factor=2.0)])
        status = fabric.endpoint_status("local")
        assert status.active_workers == 3
        assert fabric.speed_factor("local") == 2.0
        assert fabric.endpoint_names() == ["local"]
        assert fabric.worker_counts() == {"local": (3, 0)}
        fabric.shutdown()

    def test_invalid_worker_count(self):
        with pytest.raises(EndpointError):
            LocalEndpoint("x", max_workers=0)
