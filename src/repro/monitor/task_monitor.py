"""Task monitor (§IV-B).

Tracks task execution information — state transitions, completion times,
input/output sizes and which endpoint ran the task — and streams it into the
local history store, when there is one, and to any registered task listeners
(the execution profiler).  Transfer results go to the history store only.  It
also maintains the per-endpoint success-rate statistics used by the fault
tolerance layer when reassigning repeatedly failing tasks (§IV-G).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.faas.types import TaskExecutionRecord
from repro.monitor.store import HistoryStore, TaskRecord, TransferRecord
from repro.data.transfer import TransferResult

__all__ = ["TaskMonitor"]

RecordListener = Callable[[TaskExecutionRecord], None]


class TaskMonitor:
    """Collects execution and transfer observations."""

    def __init__(self, store: Optional[HistoryStore] = None) -> None:
        #: Where observations are persisted; ``None`` keeps none.
        self.store = store
        self._task_listeners: List[RecordListener] = []
        self._success_by_endpoint: Dict[str, int] = defaultdict(int)
        self._failure_by_endpoint: Dict[str, int] = defaultdict(int)
        self.records_seen = 0

    # ------------------------------------------------------------- listeners
    def add_task_listener(self, listener: RecordListener) -> None:
        self._task_listeners.append(listener)

    # ------------------------------------------------------------ observation
    def observe_task(self, record: TaskExecutionRecord) -> None:
        """Ingest one task execution record."""
        self.records_seen += 1
        if record.success:
            self._success_by_endpoint[record.endpoint] += 1
        else:
            self._failure_by_endpoint[record.endpoint] += 1

        if self.store is not None:
            self.store.add_task_record(
                TaskRecord(
                    function_name=record.function_name,
                    endpoint=record.endpoint,
                    input_mb=record.input_mb,
                    output_mb=record.output_mb,
                    execution_time_s=record.execution_time_s,
                    cores_per_node=record.cores_per_node,
                    cpu_freq_ghz=record.cpu_freq_ghz,
                    ram_gb=record.ram_gb,
                    success=record.success,
                    timestamp=record.completed_at,
                )
            )
        for listener in self._task_listeners:
            listener(record)

    def observe_transfer(self, result: TransferResult, concurrency: int = 1) -> None:
        """Ingest one transfer result."""
        if self.store is not None:
            self.store.add_transfer_record(
                TransferRecord(
                    src=result.request.src,
                    dst=result.request.dst,
                    size_mb=result.request.size_mb,
                    duration_s=result.duration_s,
                    mechanism=result.request.mechanism,
                    concurrency=concurrency,
                    success=result.success,
                    timestamp=result.completed_at,
                )
            )

    # -------------------------------------------------------------- summaries
    def success_rate(self, endpoint: str) -> float:
        """Fraction of tasks that succeeded on ``endpoint`` (1.0 if unseen)."""
        successes = self._success_by_endpoint.get(endpoint, 0)
        failures = self._failure_by_endpoint.get(endpoint, 0)
        total = successes + failures
        if total == 0:
            return 1.0
        return successes / total

    def most_reliable_endpoint(self, candidates: List[str]) -> str:
        """Endpoint with the highest observed success rate (§IV-G)."""
        if not candidates:
            raise ValueError("candidates must be non-empty")
        return max(candidates, key=lambda ep: (self.success_rate(ep), ep))
