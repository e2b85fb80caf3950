"""Tests for the transfer backends."""

import pytest

from repro.data.remote_file import GlobusFile
from repro.data.transfer import (
    LocalCopyTransferBackend,
    SimulatedTransferBackend,
    TransferRequest,
)
from repro.sim.kernel import SimulationKernel, WallClock
from repro.sim.network import NetworkModel


def make_request(size_mb=90.0, src="a", dst="b", mechanism="globus"):
    file = GlobusFile("data.bin", size_mb=size_mb, location=src)
    return TransferRequest(file=file, src=src, dst=dst, mechanism=mechanism)


class TestTransferRequest:
    def test_ids_unique(self):
        assert make_request().transfer_id != make_request().transfer_id

    def test_same_src_dst_rejected(self):
        with pytest.raises(ValueError):
            make_request(src="a", dst="a")

    def test_size_proxies_file(self):
        assert make_request(size_mb=42.0).size_mb == 42.0


class TestSimulatedBackend:
    def test_transfer_completes_with_expected_duration(self):
        kernel = SimulationKernel()
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        backend = SimulatedTransferBackend(kernel, net)
        results = []
        backend.start(make_request(size_mb=90.0), results.append)
        kernel.run()
        assert len(results) == 1
        result = results[0]
        assert result.success
        # 2 s Globus startup + 0.05 s latency + 90 MB / (100 * 0.9) MB/s = 3.05 s
        assert result.duration_s == pytest.approx(3.05, rel=1e-3)
        assert result.request.file.available_at("b")
        assert backend.completed_count == 1

    def test_rsync_slower_than_globus(self):
        kernel = SimulationKernel()
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        backend = SimulatedTransferBackend(kernel, net)
        results = []
        backend.start(make_request(size_mb=500.0, mechanism="globus"), results.append)
        backend.start(make_request(size_mb=500.0, mechanism="rsync"), results.append)
        kernel.run()
        durations = {r.request.mechanism: r.duration_s for r in results}
        assert durations["rsync"] > durations["globus"]

    def test_failure_injection(self):
        kernel = SimulationKernel()
        net = NetworkModel.uniform(["a", "b"], failure_rate=1.0, jitter=0.0)
        backend = SimulatedTransferBackend(kernel, net)
        results = []
        backend.start(make_request(), results.append)
        kernel.run()
        assert not results[0].success
        assert results[0].error is not None
        assert not results[0].request.file.available_at("b")
        assert backend.failed_count == 1

    def test_concurrent_transfers_share_link(self):
        kernel = SimulationKernel()
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        backend = SimulatedTransferBackend(kernel, net)
        results = []
        backend.start(make_request(size_mb=450.0), results.append)
        backend.start(make_request(size_mb=450.0), results.append)
        kernel.run()
        # Bandwidth is assessed when a transfer starts: the first transfer has
        # the link to itself (450/90 = 5 s), the second shares it (450/45 = 10 s).
        durations = sorted(r.duration_s for r in results)
        assert durations[0] == pytest.approx(7.05, rel=1e-3)
        assert durations[1] == pytest.approx(12.05, rel=1e-3)
        assert net.active_transfers("a", "b") == 0

    def test_estimate_duration(self):
        kernel = SimulationKernel()
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        backend = SimulatedTransferBackend(kernel, net)
        assert backend.estimate_duration("a", "b", 90.0) == pytest.approx(3.05, rel=1e-3)


class TestLocalBackend:
    def test_completes_immediately(self):
        backend = LocalCopyTransferBackend(clock=WallClock())
        results = []
        backend.start(make_request(), results.append)
        assert len(results) == 1
        assert results[0].success
        assert results[0].request.file.available_at("b")
