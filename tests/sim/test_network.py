"""Tests for the wide-area network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import LinkSpec, NetworkModel


class TestLinkSpec:
    def test_defaults(self):
        link = LinkSpec(bandwidth_mbps=100.0)
        assert link.latency_s >= 0
        assert link.failure_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bandwidth_mbps=0.0),
            dict(bandwidth_mbps=10.0, latency_s=-1.0),
            dict(bandwidth_mbps=10.0, failure_rate=1.5),
            dict(bandwidth_mbps=10.0, jitter=-0.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkSpec(**kwargs)


class TestNetworkModel:
    def test_same_endpoint_transfer_is_free(self):
        net = NetworkModel.uniform(["a", "b"])
        est = net.estimate("a", "a", size_mb=1000.0)
        assert est.duration_s == 0.0
        assert net.sample_duration("a", "a", 1000.0) == 0.0

    def test_estimate_scales_with_size(self):
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        small = net.estimate("a", "b", size_mb=10.0)
        big = net.estimate("a", "b", size_mb=1000.0)
        assert big.duration_s > small.duration_s
        # Bulk term should dominate for the big transfer: 1000 MB / 90 MB/s.
        assert big.duration_s == pytest.approx(big.startup_s + 1000.0 / 90.0)

    def test_mechanism_efficiency_ordering(self):
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        globus = net.estimate("a", "b", 500.0, mechanism="globus")
        rsync = net.estimate("a", "b", 500.0, mechanism="rsync")
        assert globus.duration_s < rsync.duration_s

    def test_concurrency_shares_bandwidth(self):
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        alone = net.estimate("a", "b", 100.0)
        net.register_transfer_start("a", "b")
        net.register_transfer_start("a", "b")
        shared = net.estimate("a", "b", 100.0)
        assert shared.bandwidth_mbps == pytest.approx(alone.bandwidth_mbps / 2)
        net.register_transfer_end("a", "b")
        net.register_transfer_end("a", "b")
        assert net.active_transfers("a", "b") == 0

    def test_register_end_never_negative(self):
        net = NetworkModel.uniform(["a", "b"])
        net.register_transfer_end("a", "b")
        assert net.active_transfers("a", "b") == 0

    def test_negative_size_rejected(self):
        net = NetworkModel.uniform(["a", "b"])
        with pytest.raises(ValueError):
            net.estimate("a", "b", size_mb=-1.0)

    def test_default_link_used_for_unknown_pairs(self):
        net = NetworkModel(default_link=LinkSpec(bandwidth_mbps=42.0, jitter=0.0))
        assert net.link("x", "y").bandwidth_mbps == 42.0

    def test_set_link_symmetric(self):
        net = NetworkModel()
        net.set_link("a", "b", LinkSpec(bandwidth_mbps=10.0))
        assert net.link("b", "a").bandwidth_mbps == 10.0

    def test_constructor_links_are_directed(self):
        net = NetworkModel(links={("a", "b"): LinkSpec(bandwidth_mbps=10.0)})
        assert net.link("a", "b").bandwidth_mbps == 10.0
        assert net.link("b", "a").bandwidth_mbps != 10.0

    def test_failure_sampling_rate(self):
        net = NetworkModel.uniform(["a", "b"], failure_rate=0.5, seed=1)
        n = 2000
        failures = sum(net.sample_failure("a", "b") for _ in range(n))
        assert 0.4 * n < failures < 0.6 * n

    def test_no_failures_when_rate_zero(self):
        net = NetworkModel.uniform(["a", "b"], failure_rate=0.0)
        assert not any(net.sample_failure("a", "b") for _ in range(100))

    def test_testbed_factory_link_tiers(self):
        net = NetworkModel.testbed()
        fast = net.link("taiyi", "qiming").bandwidth_mbps
        slow = net.link("taiyi", "lab").bandwidth_mbps
        assert fast > slow

    def test_jitter_reproducible_with_seed(self):
        a = NetworkModel.uniform(["a", "b"], jitter=0.2, seed=7)
        b = NetworkModel.uniform(["a", "b"], jitter=0.2, seed=7)
        assert [a.sample_duration("a", "b", 50.0) for _ in range(5)] == [
            b.sample_duration("a", "b", 50.0) for _ in range(5)
        ]


class TestNetworkProperties:
    @given(
        size=st.floats(min_value=0.0, max_value=1e5),
        bw=st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=50, deadline=None)
    def test_duration_nonnegative_and_monotone_in_size(self, size, bw):
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=bw, jitter=0.0)
        est = net.estimate("a", "b", size)
        est2 = net.estimate("a", "b", size + 1.0)
        assert est.duration_s >= 0
        assert est2.duration_s >= est.duration_s

    @given(concurrency=st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_bandwidth_inverse_in_concurrency(self, concurrency):
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        bw = net.effective_bandwidth("a", "b", concurrency=concurrency)
        assert bw == pytest.approx(90.0 / concurrency)
