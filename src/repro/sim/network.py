"""Wide-area network model connecting the federated endpoints.

The paper relies on Globus and rsync for wide-area transfers and observes
(citing Liu et al., HPDC'17) that transfer time across federated CI is
"relatively predictable" — primarily a function of data size and the network
conditions between endpoints.  This module provides that substrate:

* a pairwise :class:`LinkSpec` (bandwidth, latency, jitter, failure rate),
* per-mechanism efficiency (Globus/GridFTP sustains a higher fraction of the
  raw bandwidth than single-stream rsync),
* concurrency effects — a link's bandwidth is shared by the transfers the
  data manager runs concurrently on it, and
* deterministic sampling of actual transfer durations for the simulator.

The transfer profiler (``repro.profiling.transfer``) never reads this model
directly; it learns from observed transfers exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

__all__ = ["LinkSpec", "NetworkModel", "TransferEstimate"]

#: Fraction of raw link bandwidth each mechanism sustains in practice.
MECHANISM_EFFICIENCY: Mapping[str, float] = {
    "globus": 0.9,
    "rsync": 0.6,
    "local": 1.0,
}

#: Fixed per-transfer startup cost (seconds) per mechanism: Globus transfers
#: go through the transfer service and pay a noticeable setup cost, rsync
#: pays an ssh handshake, local copies are immediate.
MECHANISM_STARTUP_S: Mapping[str, float] = {
    "globus": 2.0,
    "rsync": 0.5,
    "local": 0.0,
}


@dataclass(frozen=True)
class LinkSpec:
    """Characteristics of the network path between two endpoints."""

    #: Sustainable raw bandwidth in MB/s.
    bandwidth_mbps: float
    #: One-way latency in seconds.
    latency_s: float = 0.05
    #: Multiplicative jitter std-dev applied to sampled durations.
    jitter: float = 0.05
    #: Probability that an individual transfer attempt fails.
    failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")


@dataclass(frozen=True)
class TransferEstimate:
    """Ground-truth duration estimate produced by the network model."""

    duration_s: float
    bandwidth_mbps: float
    startup_s: float

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError("duration must be non-negative")


class NetworkModel:
    """Pairwise bandwidth/latency matrix with concurrency-aware sampling.

    Parameters
    ----------
    links:
        Mapping from ``(src, dst)`` endpoint-name pairs to :class:`LinkSpec`,
        one direction per pair (:meth:`set_link` sets both).
    default_link:
        Link used for endpoint pairs not listed explicitly.
    seed:
        Seed for the jitter / failure sampling stream.
    """

    def __init__(
        self,
        links: Optional[Mapping[Tuple[str, str], LinkSpec]] = None,
        default_link: Optional[LinkSpec] = None,
        seed: int = 0,
    ) -> None:
        self._links: Dict[Tuple[str, str], LinkSpec] = dict(links or {})
        self._default = default_link or LinkSpec(bandwidth_mbps=100.0, latency_s=0.05)
        self._rng = np.random.default_rng(seed)
        #: Number of in-flight transfers per (src, dst) pair, maintained by the
        #: data manager so that concurrent transfers share the link.
        self._active: Dict[Tuple[str, str], int] = {}
        #: Fabric-wide bandwidth multiplier; a degradation window (scenario
        #: dynamics) drops it below 1.0 and restores it afterwards.  Transfers
        #: sample their duration at start time, so only transfers starting
        #: inside the window are slowed — like a real WAN brownout.
        self._bandwidth_scale = 1.0

    # ----------------------------------------------------------------- links
    def set_link(self, src: str, dst: str, link: LinkSpec) -> None:
        """Set the link between ``src`` and ``dst``, in both directions."""
        self._links[(src, dst)] = link
        self._links[(dst, src)] = link

    def link(self, src: str, dst: str) -> LinkSpec:
        if src == dst:
            # Intra-endpoint "transfers" are shared-filesystem accesses.
            return LinkSpec(bandwidth_mbps=2000.0, latency_s=0.0, jitter=0.0)
        return self._links.get((src, dst), self._default)

    def endpoints(self) -> Iterable[str]:
        seen = set()
        for a, b in self._links:
            seen.add(a)
            seen.add(b)
        return sorted(seen)

    # ----------------------------------------------------- concurrency state
    def register_transfer_start(self, src: str, dst: str) -> None:
        key = (src, dst)
        self._active[key] = self._active.get(key, 0) + 1

    def register_transfer_end(self, src: str, dst: str) -> None:
        key = (src, dst)
        current = self._active.get(key, 0)
        if current <= 1:
            self._active.pop(key, None)
        else:
            self._active[key] = current - 1

    def active_transfers(self, src: str, dst: str) -> int:
        return self._active.get((src, dst), 0)

    # ------------------------------------------------------------ degradation
    def set_bandwidth_scale(self, scale: float) -> None:
        """Scale every link's bandwidth (1.0 = nominal, <1.0 = degraded)."""
        if scale <= 0:
            raise ValueError("bandwidth scale must be positive")
        self._bandwidth_scale = scale

    # -------------------------------------------------------------- modeling
    def effective_bandwidth(
        self, src: str, dst: str, mechanism: str = "globus", concurrency: Optional[int] = None
    ) -> float:
        """Bandwidth (MB/s) one transfer gets given current link sharing."""
        link = self.link(src, dst)
        efficiency = MECHANISM_EFFICIENCY.get(mechanism, 0.8)
        sharing = max(1, concurrency if concurrency is not None else self.active_transfers(src, dst))
        return link.bandwidth_mbps * self._bandwidth_scale * efficiency / sharing

    def estimate(
        self,
        src: str,
        dst: str,
        size_mb: float,
        mechanism: str = "globus",
        concurrency: Optional[int] = None,
    ) -> TransferEstimate:
        """Deterministic (no-jitter) duration estimate for a transfer."""
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if src == dst:
            return TransferEstimate(duration_s=0.0, bandwidth_mbps=float("inf"), startup_s=0.0)
        link = self.link(src, dst)
        bw = self.effective_bandwidth(src, dst, mechanism, concurrency)
        startup = MECHANISM_STARTUP_S.get(mechanism, 1.0) + link.latency_s
        duration = startup + size_mb / bw
        return TransferEstimate(duration_s=duration, bandwidth_mbps=bw, startup_s=startup)

    def sample_duration(
        self,
        src: str,
        dst: str,
        size_mb: float,
        mechanism: str = "globus",
        concurrency: Optional[int] = None,
    ) -> float:
        """Sample an actual transfer duration, with jitter applied."""
        est = self.estimate(src, dst, size_mb, mechanism, concurrency)
        if est.duration_s == 0.0:
            return 0.0
        link = self.link(src, dst)
        if link.jitter > 0:
            factor = float(self._rng.lognormal(mean=0.0, sigma=link.jitter))
        else:
            factor = 1.0
        return est.duration_s * factor

    def sample_failure(self, src: str, dst: str) -> bool:
        """Sample whether a transfer attempt on this link fails."""
        if src == dst:
            return False
        link = self.link(src, dst)
        if link.failure_rate <= 0:
            return False
        return bool(self._rng.random() < link.failure_rate)

    # ------------------------------------------------------------- factories
    @classmethod
    def uniform(
        cls,
        endpoint_names: Iterable[str],
        bandwidth_mbps: float = 100.0,
        latency_s: float = 0.05,
        jitter: float = 0.05,
        failure_rate: float = 0.0,
        seed: int = 0,
    ) -> "NetworkModel":
        """Fully-connected network with identical links between all endpoints."""
        names = list(endpoint_names)
        link = LinkSpec(
            bandwidth_mbps=bandwidth_mbps,
            latency_s=latency_s,
            jitter=jitter,
            failure_rate=failure_rate,
        )
        links = {}
        for a in names:
            for b in names:
                if a != b:
                    links[(a, b)] = link
        return cls(links=links, default_link=link, seed=seed)

    @classmethod
    def tiered(
        cls,
        endpoint_names: Iterable[str],
        core_count: int = 2,
        fast_mbps: float = 150.0,
        slow_mbps: float = 30.0,
        latency_s: float = 0.05,
        jitter: float = 0.0,
        failure_rate: float = 0.0,
        seed: int = 0,
    ) -> "NetworkModel":
        """A two-tier federation: fast core sites, slow edge links.

        The first ``core_count`` endpoints are connected to each other at
        ``fast_mbps`` (a campus backbone); every link that touches an edge
        endpoint runs at ``slow_mbps`` (institutional WAN).  The asymmetry
        makes replica placement matter: the data plane's multi-source
        selection can fetch from a core replica instead of the slow original,
        and its eviction policies trade cheap-to-refetch core data against
        expensive edge data.
        """
        names = list(endpoint_names)
        if not 0 < core_count <= len(names):
            raise ValueError("core_count must be within 1..len(endpoint_names)")
        fast = LinkSpec(
            bandwidth_mbps=fast_mbps, latency_s=latency_s, jitter=jitter,
            failure_rate=failure_rate,
        )
        slow = LinkSpec(
            bandwidth_mbps=slow_mbps, latency_s=latency_s, jitter=jitter,
            failure_rate=failure_rate,
        )
        core = set(names[:core_count])
        links = {}
        for a in names:
            for b in names:
                if a != b:
                    links[(a, b)] = fast if a in core and b in core else slow
        return cls(links=links, default_link=slow, seed=seed)

    @classmethod
    def testbed(cls, seed: int = 0) -> "NetworkModel":
        """Network approximating the paper's testbed.

        Taiyi and Qiming sit in the same campus (fast links between them and
        to the workstation); the department and lab clusters are reached over
        slower institutional links.  Bandwidths are chosen so that the drug
        screening workflow's ~45 GB of cross-site traffic (Table IV) stages in
        minutes, matching the relative makespans in the paper.
        """
        fast = LinkSpec(bandwidth_mbps=150.0, latency_s=0.02, jitter=0.05)
        medium = LinkSpec(bandwidth_mbps=60.0, latency_s=0.05, jitter=0.08)
        slow = LinkSpec(bandwidth_mbps=25.0, latency_s=0.08, jitter=0.10)
        model = cls(default_link=medium, seed=seed)
        model.set_link("taiyi", "qiming", fast)
        model.set_link("taiyi", "dept", medium)
        model.set_link("taiyi", "lab", slow)
        model.set_link("qiming", "dept", medium)
        model.set_link("qiming", "lab", slow)
        model.set_link("dept", "lab", medium)
        for name in ("taiyi", "qiming", "dept", "lab"):
            model.set_link("workstation", name, medium)
        return model
