"""Transfer mechanisms used by the data manager (§IV-E).

The data manager is mechanism-agnostic: it hands :class:`TransferRequest`
objects to a :class:`TransferBackend` and receives completion callbacks.  Two
backends are provided:

* :class:`SimulatedTransferBackend` — models Globus/rsync transfers over the
  wide-area :class:`~repro.sim.network.NetworkModel`; durations depend on
  size, link bandwidth, mechanism efficiency and concurrent transfers, and
  transfers can fail with the link's failure rate.
* :class:`LocalCopyTransferBackend` — used in local mode, where all
  "endpoints" share the local filesystem; transfers complete immediately
  (optionally copying real files).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.data.remote_file import RemoteFile
from repro.sim.kernel import SimClock, SimulationKernel
from repro.sim.network import NetworkModel

__all__ = [
    "TransferBackend",
    "TransferRequest",
    "TransferResult",
    "SimulatedTransferBackend",
    "LocalCopyTransferBackend",
]

_transfer_counter = itertools.count()


@dataclass
class TransferRequest:
    """One file movement between two endpoints."""

    file: RemoteFile
    src: str
    dst: str
    mechanism: str = "globus"
    transfer_id: str = field(
        init=False, default_factory=lambda: f"xfer-{next(_transfer_counter):08d}"
    )

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("transfer source and destination are identical")

    @property
    def size_mb(self) -> float:
        return self.file.size_mb


@dataclass
class TransferResult:
    """Outcome of one transfer attempt."""

    request: TransferRequest
    success: bool
    started_at: float
    completed_at: float
    error: Optional[str] = None

    @property
    def duration_s(self) -> float:
        return self.completed_at - self.started_at


TransferCallback = Callable[[TransferResult], None]


class TransferBackend(ABC):
    """Mechanism capable of executing transfers asynchronously."""

    @abstractmethod
    def start(self, request: TransferRequest, on_done: TransferCallback) -> None:
        """Begin a transfer; ``on_done`` is invoked exactly once when it ends."""

    def estimate_duration(self, src: str, dst: str, size_mb: float, mechanism: str = "globus") -> float:
        """Best-effort duration estimate (0.0 when unknown/free)."""
        return 0.0


class SimulatedTransferBackend(TransferBackend):
    """Transfers executed on the discrete-event network model."""

    def __init__(self, kernel: SimulationKernel, network: NetworkModel) -> None:
        self.kernel = kernel
        self.network = network
        #: Counters exposed for metrics/tests.
        self.failed_count = 0
        self.completed_count = 0

    def start(self, request: TransferRequest, on_done: TransferCallback) -> None:
        started_at = self.kernel.clock.now
        self.network.register_transfer_start(request.src, request.dst)
        failed = self.network.sample_failure(request.src, request.dst)
        duration = self.network.sample_duration(
            request.src, request.dst, request.size_mb, mechanism=request.mechanism
        )
        if failed:
            # A failed attempt still occupies the link for part of the nominal
            # duration before the error is detected.
            duration *= 0.5

        def finish() -> None:
            self.network.register_transfer_end(request.src, request.dst)
            if failed:
                self.failed_count += 1
            else:
                self.completed_count += 1
                request.file.add_location(request.dst)
            on_done(
                TransferResult(
                    request=request,
                    success=not failed,
                    started_at=started_at,
                    completed_at=self.kernel.clock.now,
                    error="simulated transfer failure" if failed else None,
                )
            )

        self.kernel.schedule(duration, finish)

    def estimate_duration(self, src: str, dst: str, size_mb: float, mechanism: str = "globus") -> float:
        return self.network.estimate(src, dst, size_mb, mechanism=mechanism).duration_s


class LocalCopyTransferBackend(TransferBackend):
    """Immediate transfers for local mode (shared filesystem): a transfer
    copies nothing, it only records the file at its destination."""

    def __init__(self, clock=None) -> None:
        # Without a clock, time stands at 0.0: a SimClock nothing advances.
        self._clock = clock if clock is not None else SimClock()
        self.completed_count = 0

    def start(self, request: TransferRequest, on_done: TransferCallback) -> None:
        now = self._clock.now
        request.file.add_location(request.dst)
        self.completed_count += 1
        on_done(
            TransferResult(
                request=request, success=True, started_at=now, completed_at=self._clock.now
            )
        )
