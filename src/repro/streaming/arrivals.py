"""Seeded stochastic tenant arrivals on the simulation kernel.

:class:`ArrivalProcess` is the open-loop half of the streaming subsystem: a
self-rescheduling Poisson process (plus optional scripted arrival times)
whose events fire on the kernel timeline exactly like the dynamics layer's
perturbations.  Each firing draws the *next* inter-arrival gap from the
registry's ``arrivals`` stream at event time — so the RNG state genuinely
advances mid-run, and a durability snapshot taken between arrivals must
capture it to replay the remainder of the stream byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.sim.kernel import SimulationKernel
from repro.streaming.spec import StreamingSpec

__all__ = ["ArrivalProcess", "StreamArrival"]


@dataclass
class StreamArrival:
    """One tenant workflow arriving at the service's front door."""

    index: int
    workflow_id: str
    arrival_s: float
    #: SLO horizon assigned at arrival (admission draws it); the absolute
    #: deadline is ``arrival_s + slo_s``.
    slo_s: float = 0.0
    scripted: bool = False

    @property
    def deadline_s(self) -> float:
        return self.arrival_s + self.slo_s


class ArrivalProcess:
    """Poisson + scripted tenant arrivals scheduled on the kernel timeline."""

    def __init__(
        self,
        kernel: SimulationKernel,
        rng,
        spec: StreamingSpec,
        on_arrival: Callable[[StreamArrival], None],
    ) -> None:
        if spec.mean_interarrival_s <= 0:
            raise ValueError("mean_interarrival_s must be positive")
        self.kernel = kernel
        self.rng = rng
        self.spec = spec
        self.on_arrival = on_arrival
        #: Stochastic arrivals emitted so far (bounded by ``max_arrivals``).
        self.emitted = 0
        #: All arrivals emitted (stochastic + scripted) — the id sequence.
        self.total_emitted = 0
        self.next_arrival_s: Optional[float] = None
        self._started = False
        #: Only the *pending* events are retained (one stochastic + the
        #: unfired scripted ones) so a 10k-arrival stream never accumulates
        #: 10k dead handles.
        self._next_handle = None
        self._scripted_handles: List = []
        self._pending_scripted = 0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Open the stream: schedule the scripted arrivals and the first draw."""
        if self._started:
            return
        self._started = True
        for at_s in sorted(self.spec.scripted_arrivals):
            self._scripted_handles.append(
                self.kernel.schedule_at(at_s, self._fire_scripted, at_s)
            )
            self._pending_scripted += 1
        if self.spec.max_arrivals > 0:
            self._schedule_next(self.spec.start_s)

    def shutdown(self) -> None:
        """Cancel every pending arrival event (orchestrator teardown)."""
        if self._next_handle is not None:
            self._next_handle.cancel()
            self._next_handle = None
        for handle in self._scripted_handles:
            handle.cancel()
        self._scripted_handles.clear()
        self._pending_scripted = 0
        self.next_arrival_s = None

    @property
    def exhausted(self) -> bool:
        """True once the stream owes no further arrival events."""
        return (
            self._started
            and self.next_arrival_s is None
            and self._pending_scripted == 0
        )

    # -------------------------------------------------------------- internal
    def _schedule_next(self, base_s: float) -> None:
        if self.emitted >= self.spec.max_arrivals:
            self.next_arrival_s = None
            self._next_handle = None
            return
        gap = float(self.rng.exponential(self.spec.mean_interarrival_s))
        at_s = base_s + gap
        self.next_arrival_s = at_s
        self._next_handle = self.kernel.schedule_at(at_s, self._fire, at_s)

    def _emit(self, at_s: float, scripted: bool) -> None:
        arrival = StreamArrival(
            index=self.total_emitted,
            workflow_id=f"wf{self.total_emitted:05d}",
            arrival_s=at_s,
            scripted=scripted,
        )
        self.total_emitted += 1
        self.on_arrival(arrival)

    def _fire(self, at_s: float) -> None:
        self.emitted += 1
        self._emit(at_s, scripted=False)
        # Draw the next gap *now*, at event time — consuming the seeded
        # stream mid-run — and keep the chain going.
        self._schedule_next(at_s)

    def _fire_scripted(self, at_s: float) -> None:
        self._pending_scripted -= 1
        self._emit(at_s, scripted=True)
