"""Hardware descriptions of the heterogeneous testbed (paper Table II).

The paper evaluates UniFaaS on four clusters plus a submission workstation:

=============  ==============================  =====  =======
Name           CPU                             RAM    # nodes
=============  ==============================  =====  =======
Taiyi          2x Xeon Gold 6148 @ 2.4 GHz      192 GB    815
Qiming         2x Xeon E5-2690 @ 2.6 GHz         64 GB    230
Dept. cluster  2x Xeon Platinum 8260 @ 2.4 GHz  770 GB     26
Lab cluster    2x Xeon Gold 5320 @ 2.2 GHz      128 GB      2
Workstation    Core i5-9400 @ 2.9 GHz            16 GB      1
=============  ==============================  =====  =======

In this reproduction each cluster is described by a :class:`ClusterSpec`
whose ``speed_factor`` captures the *relative* per-core performance of the
cluster — the quantity the heterogeneity-aware scheduler cares about.  The
factors are chosen from the CPU generations above (newer cores run a given
task faster) and can be overridden per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "HardwareSpec",
    "ClusterSpec",
    "TAIYI",
    "QIMING",
    "DEPT_CLUSTER",
    "LAB_CLUSTER",
    "WORKSTATION",
    "testbed_clusters",
]


@dataclass(frozen=True)
class HardwareSpec:
    """Per-node hardware attributes visible to the execution profiler.

    These are the features the paper's random-forest execution model is
    trained on: core count, CPU frequency and RAM of the endpoint.
    """

    cores_per_node: int
    cpu_freq_ghz: float
    ram_gb: float
    #: Relative per-core throughput; 1.0 is the reference (Qiming-class core).
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cores_per_node <= 0:
            raise ValueError("cores_per_node must be positive")
        if self.cpu_freq_ghz <= 0:
            raise ValueError("cpu_freq_ghz must be positive")
        if self.ram_gb <= 0:
            raise ValueError("ram_gb must be positive")
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of identical nodes that can host one funcX-style endpoint."""

    name: str
    hardware: HardwareSpec
    num_nodes: int
    #: Default number of workers launched per node when the endpoint scales out.
    workers_per_node: int = 20
    #: Mean batch-scheduler queue delay (seconds) when provisioning a new node.
    queue_delay_mean_s: float = 0.0
    #: Spread (std-dev) of the queue delay.
    queue_delay_std_s: float = 0.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.workers_per_node <= 0:
            raise ValueError("workers_per_node must be positive")
        if self.queue_delay_mean_s < 0 or self.queue_delay_std_s < 0:
            raise ValueError("queue delays must be non-negative")

    @property
    def max_workers(self) -> int:
        """Upper bound on concurrently running workers for the cluster."""
        return self.num_nodes * self.workers_per_node

    @property
    def speed_factor(self) -> float:
        return self.hardware.speed_factor

    def with_overrides(self, **kwargs) -> "ClusterSpec":
        """Return a copy with selected fields replaced (used by experiments)."""
        return replace(self, **kwargs)


# --------------------------------------------------------------------------
# Table II presets.  Speed factors reflect relative single-core throughput of
# the CPU generations (Skylake-SP 6148 and Cascade Lake 8260 are the fastest,
# Ice Lake 5320 close behind, Sandy Bridge-era E5-2690 the reference, and the
# desktop i5 in between).  Queue delays model the observation in §VII that
# Taiyi "usually has longer queue times than Qiming".
# --------------------------------------------------------------------------

TAIYI = ClusterSpec(
    name="taiyi",
    hardware=HardwareSpec(cores_per_node=40, cpu_freq_ghz=2.4, ram_gb=192, speed_factor=1.45),
    num_nodes=815,
    workers_per_node=40,
    queue_delay_mean_s=120.0,
    queue_delay_std_s=30.0,
)

QIMING = ClusterSpec(
    name="qiming",
    hardware=HardwareSpec(cores_per_node=24, cpu_freq_ghz=2.6, ram_gb=64, speed_factor=1.0),
    num_nodes=230,
    workers_per_node=24,
    queue_delay_mean_s=30.0,
    queue_delay_std_s=10.0,
)

DEPT_CLUSTER = ClusterSpec(
    name="dept",
    hardware=HardwareSpec(cores_per_node=48, cpu_freq_ghz=2.4, ram_gb=770, speed_factor=1.40),
    num_nodes=26,
    workers_per_node=24,
    queue_delay_mean_s=10.0,
    queue_delay_std_s=5.0,
)

LAB_CLUSTER = ClusterSpec(
    name="lab",
    hardware=HardwareSpec(cores_per_node=52, cpu_freq_ghz=2.2, ram_gb=128, speed_factor=1.25),
    num_nodes=2,
    workers_per_node=26,
    queue_delay_mean_s=0.0,
    queue_delay_std_s=0.0,
)

WORKSTATION = ClusterSpec(
    name="workstation",
    hardware=HardwareSpec(cores_per_node=6, cpu_freq_ghz=2.9, ram_gb=16, speed_factor=1.1),
    num_nodes=1,
    workers_per_node=6,
)


def testbed_clusters() -> Dict[str, ClusterSpec]:
    """The Table II clusters keyed by name."""
    return {
        c.name: c
        for c in (TAIYI, QIMING, DEPT_CLUSTER, LAB_CLUSTER, WORKSTATION)
    }
