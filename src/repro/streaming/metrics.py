"""Steady-state metrics for the open-loop serving mode.

A closed batch reports one makespan; an open-loop service has no makespan —
what matters is what the stream looks like *while it runs*: sliding-window
throughput, tail waits (queueing and end-to-end response), the abandonment
and rejection rates, and how deep the admission queue got.  All reductions
reuse :class:`~repro.metrics.collector.StreamingStats` (exact mean +
seeded-reservoir percentiles), so the payload is byte-deterministic and O(1)
in memory regardless of how many tenants ever flowed through.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.metrics.collector import StreamingStats

__all__ = ["SteadyStateMetrics"]


class SteadyStateMetrics:
    """Sliding-window service metrics over an unbounded tenant stream."""

    def __init__(self, window_s: float, *, seed: int = 0) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        #: Time a tenant waited in the admission queue (admitted ones).
        self.queue_wait = StreamingStats(seed=seed)
        #: Arrival-to-completion response time (completed tenants).
        self.response = StreamingStats(seed=seed + 1)
        self.completed = 0
        self.deadline_misses = 0
        self._window: Deque[float] = deque()
        self.window_completions_peak = 0

    # ------------------------------------------------------------ recording
    def record_admission(self, wait_s: float) -> None:
        self.queue_wait.observe(wait_s)

    def record_completion(self, now: float, response_s: float, missed: bool) -> None:
        self.completed += 1
        self.response.observe(response_s)
        if missed:
            self.deadline_misses += 1
        window = self._window
        window.append(now)
        floor = now - self.window_s
        while window and window[0] <= floor:
            window.popleft()
        self.window_completions_peak = max(self.window_completions_peak, len(window))

    # -------------------------------------------------------------- reading
    def deadline_miss_rate(self) -> float:
        return self.deadline_misses / self.completed if self.completed else 0.0

    def throughput_per_s(self, elapsed_s: float) -> float:
        return self.completed / elapsed_s if elapsed_s > 0 else 0.0

    def window_throughput_peak_per_s(self) -> float:
        return self.window_completions_peak / self.window_s

    def payload(self, elapsed_s: float) -> Dict[str, object]:
        """Deterministic, JSON-safe reduction (the BENCH artifact block)."""
        return {
            "completed": self.completed,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": round(self.deadline_miss_rate(), 6),
            "throughput_per_s": round(self.throughput_per_s(elapsed_s), 6),
            "window_throughput_peak_per_s": round(
                self.window_throughput_peak_per_s(), 6
            ),
            "queue_wait_mean_s": round(self.queue_wait.mean(), 6),
            "queue_wait_p95_s": round(self.queue_wait.percentile(0.95), 6),
            "wait_mean_s": round(self.response.mean(), 6),
            "wait_p95_s": round(self.response.percentile(0.95), 6),
        }
