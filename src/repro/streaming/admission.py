"""Admission control for the open-loop serving mode.

The :class:`AdmissionController` stands between the arrival stream and the
:class:`~repro.serving.manager.WorkflowManager`: it holds a bounded pending
queue (arrivals beyond the bound are *rejected* — the backpressure signal),
admits tenants whenever an active slot is free, and abandons queued arrivals
whose patience expires before admission.  Every decision happens at a
deterministic kernel time, so the counters and the admitted-tenant sequence
are part of the byte-determinism contract.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict

from repro.sim.kernel import SimulationKernel
from repro.streaming.arrivals import StreamArrival
from repro.streaming.spec import StreamingSpec

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded pending queue with backpressure and deadline abandonment."""

    def __init__(
        self,
        kernel: SimulationKernel,
        rng,
        spec: StreamingSpec,
        admit: Callable[[StreamArrival, float], None],
        *,
        active_count: Callable[[], int],
    ) -> None:
        self.kernel = kernel
        self.rng = rng
        self.spec = spec
        self._admit_cb = admit
        self._active_count = active_count

        self.pending: Deque[StreamArrival] = deque()
        self._abandon_handles: Dict[str, object] = {}

        # Counters (steady-state metrics + durability capture).
        self.submitted = 0
        self.rejected = 0
        self.abandoned = 0
        self.admitted = 0
        self.queue_depth_peak = 0

    # --------------------------------------------------------------- intake
    def submit(self, arrival: StreamArrival) -> None:
        """One arrival at the front door: queue it, or reject at the bound."""
        self.submitted += 1
        arrival.slo_s = self._draw_slo()
        if len(self.pending) >= self.spec.queue_limit:
            self.rejected += 1
            return
        self.pending.append(arrival)
        self.queue_depth_peak = max(self.queue_depth_peak, len(self.pending))
        if self.spec.patience_s > 0:
            # A real (non-daemon) event: an arrival nobody ever admits must
            # still abandon at its patience deadline, even if the federation
            # is otherwise idle.  Firing exactly *at* the deadline abandons —
            # patience is a strict bound.
            self._abandon_handles[arrival.workflow_id] = self.kernel.schedule_at(
                arrival.arrival_s + self.spec.patience_s,
                self._abandon,
                arrival,
            )
        self.pump()

    def pump(self) -> int:
        """Admit queued arrivals while active slots are free; returns count."""
        admitted = 0
        while self.pending and self._active_count() < self.spec.max_active:
            arrival = self.pending.popleft()
            handle = self._abandon_handles.pop(arrival.workflow_id, None)
            if handle is not None:
                handle.cancel()
            self.admitted += 1
            admitted += 1
            self._admit_cb(arrival, self.kernel.clock.now)
        return admitted

    # ------------------------------------------------------------- teardown
    def shutdown(self) -> None:
        """Cancel pending abandonment events (orchestrator teardown)."""
        for handle in self._abandon_handles.values():
            handle.cancel()
        self._abandon_handles.clear()
        self.pending.clear()

    # -------------------------------------------------------------- internal
    def _draw_slo(self) -> float:
        """Per-arrival SLO from the seeded ``admission`` stream."""
        choices = self.spec.slo_choices
        if choices:
            return float(choices[int(self.rng.integers(0, len(choices)))])
        return float(self.spec.slo_s)

    def _abandon(self, arrival: StreamArrival) -> None:
        try:
            self.pending.remove(arrival)
        except ValueError:
            return  # already admitted (its cancel raced an in-flight event)
        self._abandon_handles.pop(arrival.workflow_id, None)
        self.abandoned += 1
