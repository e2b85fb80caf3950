"""Tests for the hardware presets (paper Table II)."""

import pytest

from repro.sim.hardware import (
    DEPT_CLUSTER,
    LAB_CLUSTER,
    QIMING,
    TAIYI,
    WORKSTATION,
    ClusterSpec,
    HardwareSpec,
)
from repro.sim.hardware import testbed_clusters as load_testbed_clusters


class TestHardwareSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cores_per_node=0, cpu_freq_ghz=2.0, ram_gb=64),
            dict(cores_per_node=4, cpu_freq_ghz=0.0, ram_gb=64),
            dict(cores_per_node=4, cpu_freq_ghz=2.0, ram_gb=0),
            dict(cores_per_node=4, cpu_freq_ghz=2.0, ram_gb=64, speed_factor=0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HardwareSpec(**kwargs)


class TestClusterSpec:
    def test_max_workers(self):
        assert QIMING.max_workers == QIMING.num_nodes * QIMING.workers_per_node

    def test_with_overrides_returns_copy(self):
        small = TAIYI.with_overrides(num_nodes=50)
        assert small.num_nodes == 50
        assert TAIYI.num_nodes == 815
        assert small.hardware == TAIYI.hardware

    def test_invalid_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="x", hardware=QIMING.hardware, num_nodes=0)


class TestTestbedPresets:
    def test_table2_node_counts(self):
        assert TAIYI.num_nodes == 815
        assert QIMING.num_nodes == 230
        assert DEPT_CLUSTER.num_nodes == 26
        assert LAB_CLUSTER.num_nodes == 2
        assert WORKSTATION.num_nodes == 1

    def test_table2_ram(self):
        assert TAIYI.hardware.ram_gb == 192
        assert QIMING.hardware.ram_gb == 64
        assert DEPT_CLUSTER.hardware.ram_gb == 770
        assert LAB_CLUSTER.hardware.ram_gb == 128
        assert WORKSTATION.hardware.ram_gb == 16

    def test_taiyi_is_fastest_cluster(self):
        # §VI: DHA prefers Taiyi, "a higher performance cluster".
        others = (QIMING, DEPT_CLUSTER, LAB_CLUSTER)
        assert all(TAIYI.speed_factor >= c.speed_factor for c in others)
        assert TAIYI.speed_factor > QIMING.speed_factor

    def test_taiyi_longer_queue_than_qiming(self):
        # §VII: Taiyi usually has longer queue times than Qiming.
        assert TAIYI.queue_delay_mean_s > QIMING.queue_delay_mean_s

    def test_registry_contains_all(self):
        clusters = load_testbed_clusters()
        assert set(clusters) == {"taiyi", "qiming", "dept", "lab", "workstation"}
        assert clusters["taiyi"] is TAIYI
