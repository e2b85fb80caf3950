"""Metrics collected while a workflow runs.

Everything the paper's evaluation plots or tabulates is gathered here:

* makespan and total transfer volume (Tables IV and V),
* per-endpoint active/busy worker time-series and aggregate worker
  utilisation (Figs. 7, 9, 12, 13),
* number of tasks in the data-staging state over time (Fig. 10),
* tasks assigned per endpoint / per worker (Fig. 11),
* number of re-scheduled tasks over time (Figs. 12–13),
* the per-component latency breakdown record of a task (Fig. 5; the
  :mod:`repro.experiments.latency` runs fill it),
* real (wall-clock) scheduler overhead per task (Table III), and
* the data-plane counters (bytes moved, cache hit rate, evictions,
  prefetch usefulness) when the :mod:`repro.dataplane` subsystem is active.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "LatencyBreakdown",
    "MetricsCollector",
    "StreamingStats",
    "TimeSeries",
    "WorkflowSummary",
    "percentile",
]


class StreamingStats:
    """Streaming mean + reservoir-sampled percentiles over a value stream.

    The collector used to keep every per-task wait in a Python list, which
    grows without bound with workflow size (a million tasks is tens of MB of
    list + boxed floats for two summary numbers).  This keeps O(capacity)
    state instead: a count, a running total, and a fixed-size uniform
    reservoir (Vitter's algorithm R) driven by a deterministic seeded RNG so
    runs stay reproducible.

    Exactness contract: the mean accumulates left-to-right in observation
    order — bit-identical to ``sum(list) / len(list)`` over the same stream —
    and while ``count <= capacity`` the reservoir holds *every* observation,
    so percentiles are exact (identical to nearest-rank over the full list).
    All preset scenarios sit far below the default capacity; only
    million-task-scale streams switch to sampled percentiles.
    """

    #: Reservoir size: the observations kept for the percentiles.
    capacity = 4096

    def __init__(self, seed: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self._reservoir: List[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._reservoir[slot] = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir (exact while the
        stream fits in it, a uniform-sample estimate beyond)."""
        return percentile(self._reservoir, q)

    def __len__(self) -> int:
        return self.count


@dataclass
class TimeSeries:
    """A sampled time series (times and values of equal length)."""

    times: List[float] = field(init=False, default_factory=list)
    values: List[float] = field(init=False, default_factory=list)

    def append(self, t: float, value: float) -> None:
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0


@dataclass
class LatencyBreakdown:
    """Per-component latency of one task (Fig. 5), in seconds."""

    scheduling_s: float = 0.0
    data_management_s: float = 0.0
    submission_s: float = 0.0
    execution_s: float = 0.0
    result_polling_s: float = 0.0
    result_logging_s: float = 0.0

    def total(self) -> float:
        return (
            self.scheduling_s
            + self.data_management_s
            + self.submission_s
            + self.execution_s
            + self.result_polling_s
            + self.result_logging_s
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "scheduling_s": self.scheduling_s,
            "data_management_s": self.data_management_s,
            "submission_s": self.submission_s,
            "execution_s": self.execution_s,
            "result_polling_s": self.result_polling_s,
            "result_logging_s": self.result_logging_s,
        }


@dataclass
class WorkflowSummary:
    """End-of-run summary of a workflow execution."""

    makespan_s: float
    total_tasks: int
    completed_tasks: int
    failed_tasks: int
    transfer_volume_gb: float
    #: The same aggregate transfer volume in MB — the unit the data plane's
    #: counters, the placement benchmarks and Table IV/V report in, exposed
    #: top-level so consumers stop re-deriving it from GB.
    bytes_moved_mb: float
    rescheduled_tasks: int
    mean_worker_utilization: float
    scheduler_overhead_per_task_s: float
    tasks_per_endpoint: Dict[str, int]
    #: Data-plane counters (bytes moved, cache hit rate, evictions, prefetch
    #: usefulness); empty when the subsystem is disabled.
    dataplane: Dict[str, float] = field(default_factory=dict)
    #: Owner / tenant label when the workflow ran under the multi-workflow
    #: serving layer ("" on the single-workflow path).
    tenant: str = ""
    #: Mean and p95 of per-task ready-to-start wait (the quantity the serving
    #: layer's cross-tenant arbitration trades between workflows).
    wait_time_mean_s: float = 0.0
    wait_time_p95_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "makespan_s": self.makespan_s,
            "total_tasks": self.total_tasks,
            "completed_tasks": self.completed_tasks,
            "failed_tasks": self.failed_tasks,
            "transfer_volume_gb": self.transfer_volume_gb,
            "bytes_moved_mb": self.bytes_moved_mb,
            "rescheduled_tasks": self.rescheduled_tasks,
            "mean_worker_utilization": self.mean_worker_utilization,
            "scheduler_overhead_per_task_s": self.scheduler_overhead_per_task_s,
            "tasks_per_endpoint": dict(self.tasks_per_endpoint),
            "dataplane": dict(self.dataplane),
            "tenant": self.tenant,
            "wait_time_mean_s": self.wait_time_mean_s,
            "wait_time_p95_s": self.wait_time_p95_s,
        }


class MetricsCollector:
    """Accumulates counters and time-series for one workflow run."""

    def __init__(self, sample_interval_s: float = 5.0) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        self.sample_interval_s = sample_interval_s

        # Time-series keyed by endpoint name.
        self.active_workers: Dict[str, TimeSeries] = defaultdict(TimeSeries)
        self.busy_workers: Dict[str, TimeSeries] = defaultdict(TimeSeries)
        self.pending_tasks: Dict[str, TimeSeries] = defaultdict(TimeSeries)
        # Aggregate series.
        self.utilization = TimeSeries()
        self.staging_tasks = TimeSeries()
        self.rescheduled_tasks_series = TimeSeries()

        # Counters.
        self.tasks_completed_by_endpoint: Dict[str, int] = defaultdict(int)
        self.tasks_by_function: Dict[str, int] = defaultdict(int)
        self.rescheduled_count = 0
        self.failed_count = 0
        self.completed_count = 0

        # Scheduler overhead (real CPU/wall time, Table III).
        self.scheduling_cpu_s = 0.0
        self.scheduled_decisions = 0

        # Workflow bounds.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

        # Data-plane counters, pushed by the engine at workflow completion.
        self.dataplane_stats: Dict[str, float] = {}

        # Per-task ready-to-start waits: streamed into O(1)-per-observation
        # counters + a bounded reservoir instead of an unbounded list.
        self.wait_stats = StreamingStats(seed=0)
        #: Owner label under the multi-workflow serving layer.
        self.tenant = ""

    # ----------------------------------------------------------------- events
    def workflow_started(self, now: float) -> None:
        self.started_at = now

    def workflow_finished(self, now: float) -> None:
        self.finished_at = now

    def record_completion(self, endpoint: str, function_name: str, success: bool) -> None:
        """An attempt's record came back.  A failed attempt is no outcome: it
        re-enters the §IV-G ladder, and only a terminal failure counts
        (:meth:`record_failure`)."""
        if success:
            self.completed_count += 1
            self.tasks_completed_by_endpoint[endpoint] += 1
            self.tasks_by_function[function_name] += 1

    def record_failure(self) -> None:
        """A task failed terminally (§IV-G exhausted, or its staging failed);
        a failed attempt that is retried or reassigned is not counted."""
        self.failed_count += 1

    def record_reschedule(self, count: int = 1) -> None:
        self.rescheduled_count += count

    def record_scheduling_overhead(self, cpu_seconds: float, decisions: int) -> None:
        self.scheduling_cpu_s += cpu_seconds
        self.scheduled_decisions += decisions

    def set_dataplane_stats(self, stats: Dict[str, float]) -> None:
        """Install the data plane's counter snapshot (bytes moved, cache hit
        rate, evictions, prefetch usefulness) for the workflow summary."""
        self.dataplane_stats = dict(stats)

    def set_wait_times(self, waits: Iterable[float]) -> None:
        """Replace the wait stream with ``waits`` (any iterable; consumed
        once, never retained — the engine passes its store's timestamp
        reduction straight through at finalize)."""
        self.wait_stats = StreamingStats(seed=0)
        self.wait_stats.observe_many(waits)

    # --------------------------------------------------------------- sampling
    def sample(
        self,
        now: float,
        worker_counts: Mapping[str, Tuple[int, int]],
        staging_tasks: int,
        pending_by_endpoint: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Record one sample of the system state (periodic).

        ``worker_counts`` is ``{endpoint: (active, busy)}``.  With
        ``pending_by_endpoint`` given, every endpoint of ``worker_counts``
        gets a pending sample, 0 where the mapping has no entry, so a
        drained endpoint's series returns to zero.
        """
        # Appended to the series' lists in place: a sample is a handful of
        # list appends, not a method call per value.
        total_active = 0
        total_busy = 0
        for endpoint, (active, busy) in worker_counts.items():
            series = self.active_workers[endpoint]
            series.times.append(now)
            series.values.append(active)
            series = self.busy_workers[endpoint]
            series.times.append(now)
            series.values.append(busy)
            total_active += active
            total_busy += busy
        utilization = (total_busy / total_active * 100.0) if total_active else 0.0
        for series, value in (
            (self.utilization, utilization),
            (self.staging_tasks, staging_tasks),
            (self.rescheduled_tasks_series, self.rescheduled_count),
        ):
            series.times.append(now)
            series.values.append(value)
        if pending_by_endpoint is not None:
            for endpoint in worker_counts:
                series = self.pending_tasks[endpoint]
                series.times.append(now)
                series.values.append(pending_by_endpoint.get(endpoint, 0))

    # ---------------------------------------------------------------- summary
    @property
    def makespan_s(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    def scheduler_overhead_per_task_s(self) -> float:
        if self.scheduled_decisions == 0:
            return 0.0
        return self.scheduling_cpu_s / self.scheduled_decisions

    def wait_time_mean_s(self) -> float:
        return self.wait_stats.mean()

    def wait_time_p95_s(self) -> float:
        return self.wait_stats.percentile(0.95)

    def summary(self, transfer_volume_mb: float = 0.0) -> WorkflowSummary:
        return WorkflowSummary(
            makespan_s=self.makespan_s,
            total_tasks=self.completed_count + self.failed_count,
            completed_tasks=self.completed_count,
            failed_tasks=self.failed_count,
            transfer_volume_gb=transfer_volume_mb / 1024.0,
            bytes_moved_mb=float(transfer_volume_mb),
            rescheduled_tasks=self.rescheduled_count,
            mean_worker_utilization=self.utilization.mean(),
            scheduler_overhead_per_task_s=self.scheduler_overhead_per_task_s(),
            tasks_per_endpoint=dict(self.tasks_completed_by_endpoint),
            dataplane=dict(self.dataplane_stats),
            tenant=self.tenant,
            wait_time_mean_s=self.wait_time_mean_s(),
            wait_time_p95_s=self.wait_time_p95_s(),
        )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])
