"""Declarative description of an open-loop arrival stream.

:class:`StreamingSpec` is the scenario-facing knob set: it parameterizes the
seeded Poisson :class:`~repro.streaming.arrivals.ArrivalProcess`, the bounded
admission queue, the per-tenant SLOs feeding earliest-deadline-first
arbitration, and the sliding steady-state metrics window.  It lives in its
own module (not :mod:`repro.scenarios.spec`) so the streaming layer can read
it without importing the scenario runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["StreamingSpec"]


@dataclass(frozen=True)
class StreamingSpec:
    """Open-loop streaming regime for a scenario.

    A scenario with a ``streaming`` spec stops being a closed batch: the
    workload describes *one tenant's* DAG, and tenants arrive continuously on
    the kernel timeline until ``max_arrivals`` have been emitted.  Admission
    is bounded (``queue_limit`` pending + ``max_active`` running); arrivals
    beyond the queue bound are rejected, queued arrivals that wait longer
    than ``patience_s`` abandon, and every admitted tenant carries an
    absolute SLO deadline (arrival time + its SLO) that the ``edf``
    arbitration policy schedules against.
    """

    #: Mean inter-arrival gap of the Poisson process (simulated seconds).
    mean_interarrival_s: float = 6.0
    #: Total stochastic arrivals emitted before the stream dries up.
    max_arrivals: int = 24
    #: Simulated time the stream opens.
    start_s: float = 0.0
    #: Extra deterministic arrival times (scripted tenants, like the
    #: dynamics layer's scripted timeline events); not counted against
    #: ``max_arrivals``.
    scripted_arrivals: Tuple[float, ...] = ()
    #: Pending-queue bound; an arrival finding the queue full is rejected.
    queue_limit: int = 16
    #: Concurrently admitted (non-finished) tenant bound — the backpressure
    #: that makes the pending queue fill in the first place.
    max_active: int = 6
    #: SLO horizon: an admitted tenant's deadline is arrival + SLO.
    slo_s: float = 240.0
    #: When non-empty, each arrival's SLO is drawn uniformly from these
    #: choices (seeded ``admission`` stream) — the heterogeneity EDF exploits.
    slo_choices: Tuple[float, ...] = ()
    #: How long a queued arrival waits for admission before abandoning.
    patience_s: float = 180.0
    #: Sliding window for steady-state throughput / queue-depth metrics.
    window_s: float = 120.0
