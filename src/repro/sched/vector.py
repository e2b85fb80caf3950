"""Array-backed scheduling structures — what DHA and HEFT decide from.

Two data structures replace per-task × per-endpoint Python loops with dense
array operations:

* :class:`PredictionIndex` — stable integer ids for tasks (rows) and
  endpoints (columns) plus two float64 matrices holding the predicted
  execution time and predicted staging time of every pair.  Rows are filled
  lazily and batched, and are generation-stamped: a profiler retrain, a
  hardware change or a transfer observation invalidates lazily via version
  counters, a replica move invalidates the staging rows of the tasks that
  read *that* file, and the engine's per-task invalidation clears single
  rows.  A row belongs to a task, but what fills it is keyed by the *value*
  it is predicted from: execution rows come from the federation's execution
  profiler (one call per function; it evaluates a function's forest once per
  distinct input size and hardware matrix per model generation, whichever
  tenant's index asks), staging rows from this index's own tables keyed by
  the input files' location stamps or, without files, the estimated input
  volume.  An execution cell holds exactly the float
  ``ExecutionProfiler.predict_execution_time`` returns for that task's input
  volume on that endpoint's hardware (the speed-factor fallback while the
  function is unknown), a staging cell exactly
  :meth:`~repro.sched.base.SchedulingContext.predicted_staging_time`.

* :class:`EndpointStateVectors` — the incremental earliest-finish-time
  index: per-endpoint backlog accumulators (pending work, busy/idle workers
  and the scheduler's own not-yet-dispatched claims) that are updated on
  claim / dispatch / complete / capacity-change instead of being re-read
  from the mock endpoints for every candidate of every task.  DHA's
  endpoint selection then reduces to an argmin over one estimated-finish
  vector per task.

Both serve the §IV-B mocking-off ablation too: there the service's (stale)
status, not the local mock, is what a scheduler sees, so
:meth:`PredictionIndex.rows` re-reads it for every endpoint before it reads
any version stamp, and :meth:`EndpointStateVectors.sync` re-reads the mocks
whenever the monitor's state version moved — which is then every call.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dag import Task
    from repro.monitor.endpoint_monitor import EndpointMonitor
    from repro.sched.base import SchedulingContext

__all__ = ["EndpointStateVectors", "PredictionIndex"]

#: Row-capacity growth quantum of the prediction matrices.
_GROW = 1024

#: Entry cap of each staging-row table; reaching it clears that table.
_STAGING_ROWS_CAP = 4096

_location_stamp = attrgetter("location_stamp")


class PredictionIndex:
    """Dense, generation-stamped prediction matrices over tasks × endpoints.

    What bounds each table: the matrices, ``_rows`` and ``_stag_inputs`` by
    the live rows (:meth:`release_task` recycles a finished task's row and
    forgets its entries); the two value-keyed staging tables by their
    stream's generation (dropped when it moves) and by
    ``_STAGING_ROWS_CAP`` entries (cleared on reaching it).  The
    execution-row table is not here but on the profiler's function model,
    bounded by that model's stamp and the profiler's own cap.
    """

    def __init__(self, context: "SchedulingContext") -> None:
        self._context = context
        self.endpoint_names: List[str] = list(context.endpoint_names())
        self._endpoint_index: Dict[str, int] = {
            name: column for column, name in enumerate(self.endpoint_names)
        }
        width = max(1, len(self.endpoint_names))
        self._rows: Dict[str, int] = {}
        self._row_count = 0
        self._exec = np.zeros((_GROW, width))
        self._stag = np.zeros((_GROW, width))
        #: Per-row generation stamps; ``-1`` marks an invalidated row.
        self._exec_stamp = np.full(_GROW, -1, dtype=np.int64)
        self._stag_stamp = np.full(_GROW, -1, dtype=np.int64)
        # Version tuples collapsed into monotonic ints (stamp values).  The
        # staging generation is split in two streams sharing one counter:
        # rows of tasks *with* input files are transfer predictions between
        # those files' replicas and every endpoint, rows of tasks without
        # files cost a predicted input volume — neither stream's inputs
        # invalidate the other's rows.
        self._exec_token: Optional[Tuple] = None
        self._exec_gen = 0
        self._stag_nofiles_token: Optional[Tuple] = None
        self._stag_files_token: Optional[Tuple] = None
        self._stag_gen_nofiles = 0
        self._stag_gen_files = 0
        self._stag_counter = 0
        #: Per file-bearing row: its input files' location stamps when the
        #: row was filled.  A replica move renews only that file's stamp, so
        #: only the rows reading it go stale.
        self._stag_inputs: Dict[int, Tuple[int, ...]] = {}
        #: Staging rows by the value they were built from, each table valid
        #: for one generation of its stream: the input files' location stamps
        #: (unique across files, so the tuple names the files, their order
        #: and where each lives), or the estimated input volume of a task
        #: without files.
        self._file_rows: Dict[Tuple[int, ...], np.ndarray] = {}
        self._nofile_rows: Dict[float, np.ndarray] = {}
        #: Recycled rows of released (finished) tasks.
        self._free_rows: List[int] = []
        self._default: Optional[float] = None
        self._fallback_row: Optional[np.ndarray] = None
        self._hardware: Optional[np.ndarray] = None
        self._hardware_version = -1
        #: Matrix cells written (the vector path's "misses") and matrix rows
        #: handed to consumers (its "hits") — benchmarks assert on these.
        self.cells_filled = 0
        self.rows_served = 0
        #: Of the staging rows written: built by :meth:`_staging_row` against
        #: copied from a table.  (The execution rows' pair of counters is on
        #: the federation's ``ExecutionProfiler``, where their table lives.)
        self.staging_rows_built = 0
        self.staging_rows_reused = 0

    # ------------------------------------------------------------ generations
    def _current_exec_gen(self) -> int:
        context = self._context
        token = (
            context.execution_profiler.prediction_version,
            context.endpoint_monitor.hardware_version,
        )
        if token != self._exec_token:
            self._exec_token = token
            self._exec_gen += 1
        return self._exec_gen

    def _current_stag_gens(self) -> Tuple[int, int]:
        """Current staging generations ``(without files, with files)``."""
        context = self._context
        transfer_version = getattr(context.transfer_profiler, "prediction_version", 0)
        nofiles_token = (transfer_version, context.execution_profiler.prediction_version)
        if nofiles_token != self._stag_nofiles_token:
            self._stag_nofiles_token = nofiles_token
            self._stag_counter += 1
            self._stag_gen_nofiles = self._stag_counter
            self._nofile_rows.clear()
        files_token = (transfer_version, context.quarantine_generation())
        if files_token != self._stag_files_token:
            self._stag_files_token = files_token
            self._stag_counter += 1
            self._stag_gen_files = self._stag_counter
            self._file_rows.clear()
        return self._stag_gen_nofiles, self._stag_gen_files

    # ----------------------------------------------------------- invalidation
    def invalidate_task(self, task_id: str) -> None:
        row = self._rows.get(task_id)
        if row is not None:
            self._exec_stamp[row] = -1
            self._stag_stamp[row] = -1

    def invalidate_all(self) -> None:
        self._exec_stamp[: self._row_count] = -1
        self._stag_stamp[: self._row_count] = -1

    def release_task(self, task_id: str) -> None:
        """Forget a finished task and recycle its row.

        Keeps the matrices bounded by the live task set instead of growing
        with every task ever seen.
        """
        row = self._rows.pop(task_id, None)
        if row is not None:
            self._exec_stamp[row] = -1
            self._stag_stamp[row] = -1
            self._stag_inputs.pop(row, None)
            self._free_rows.append(row)

    # ---------------------------------------------------------------- queries
    @property
    def exec_matrix(self) -> np.ndarray:
        return self._exec

    @property
    def staging_matrix(self) -> np.ndarray:
        return self._stag

    def endpoint_index(self, name: str) -> Optional[int]:
        return self._endpoint_index.get(name)

    def rows(self, tasks: Sequence["Task"], default: float) -> np.ndarray:
        """Row indices for ``tasks`` with both matrices filled and fresh."""
        monitor = self._context.endpoint_monitor
        if not monitor.mocking_enabled:
            # §IV-B ablation: every query sees the service's own status, so
            # read it (``mock`` re-synchronises, moving the hardware and
            # state versions with it) before any stamp below is compared.
            for name in monitor.endpoint_names():
                monitor.mock(name)
        if monitor.endpoint_names() != self.endpoint_names:
            self._rebuild()
        if self._default is None:
            self._default = default
        elif default != self._default:
            # A different default parameterises the warm-up fallback and the
            # profiler query; treat it as a full exec invalidation.
            self._default = default
            self._fallback_row = None
            self._exec_stamp[: self._row_count] = -1
        exec_gen = self._current_exec_gen()
        stag_gen_nofiles, stag_gen_files = self._current_stag_gens()
        indices = np.empty(len(tasks), dtype=np.intp)
        stale_exec: List[Tuple["Task", int]] = []
        stale_stag: List[Tuple["Task", int, int]] = []
        rows = self._rows
        exec_stamp = self._exec_stamp
        stag_stamp = self._stag_stamp
        stag_inputs = self._stag_inputs
        for position, task in enumerate(tasks):
            row = rows.get(task.task_id)
            if row is None:
                row = self._add_row(task.task_id)
                exec_stamp = self._exec_stamp
                stag_stamp = self._stag_stamp
            indices[position] = row
            if exec_stamp[row] != exec_gen:
                stale_exec.append((task, row))
            files = task.input_files
            if files:
                inputs = tuple(map(_location_stamp, files))
                if stag_stamp[row] != stag_gen_files or stag_inputs.get(row) != inputs:
                    stag_inputs[row] = inputs
                    stale_stag.append((task, row, stag_gen_files))
            elif stag_stamp[row] != stag_gen_nofiles:
                stale_stag.append((task, row, stag_gen_nofiles))
        if stale_exec:
            self._fill_exec(stale_exec, exec_gen)
        if stale_stag:
            self._fill_staging(stale_stag)
        self.rows_served += len(tasks)
        return indices

    def row_means(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row mean execution time ``w`` and mean staging time ``d``.

        Accumulates column by column (left to right, in endpoint order) —
        the summation order of ``sum(times) / len(times)`` over the endpoint
        list, which the reference in ``tests/reference/dha_scalar.py`` is
        compared with bit for bit; numpy's pairwise summation would differ
        in the last digits.
        """
        count = len(self.endpoint_names)
        w = np.zeros(len(indices))
        d = np.zeros(len(indices))
        exec_rows = self._exec[indices]
        stag_rows = self._stag[indices]
        for column in range(count):
            w += exec_rows[:, column]
            d += stag_rows[:, column]
        w /= count
        d /= count
        return w, d

    # --------------------------------------------------------------- internal
    def _rebuild(self) -> None:
        """The monitored endpoint set changed: restart with fresh columns.

        Endpoint *registration* is the only event that changes the column
        set (worker churn and elastic scaling change counts on existing
        endpoints); it happens at engine start-up and, rarely, when a
        dynamic topology grows — a full refill is the cold-start cost, not
        a steady-state one.
        """
        self.__init__(self._context)  # noqa: PLC2801 - deliberate reset

    def _add_row(self, task_id: str) -> int:
        if self._free_rows:
            row = self._free_rows.pop()
            self._rows[task_id] = row
            return row
        row = self._row_count
        if row >= len(self._exec_stamp):
            grow = len(self._exec_stamp) * 2
            width = self._exec.shape[1]
            for name in ("_exec", "_stag"):
                old = getattr(self, name)
                new = np.zeros((grow, width))
                new[:row] = old
                setattr(self, name, new)
            for name in ("_exec_stamp", "_stag_stamp"):
                old = getattr(self, name)
                new = np.full(grow, -1, dtype=np.int64)
                new[:row] = old
                setattr(self, name, new)
        self._rows[task_id] = row
        self._row_count = row + 1
        return row

    def _hardware_matrix(self) -> np.ndarray:
        monitor = self._context.endpoint_monitor
        if self._hardware is None or self._hardware_version != monitor.hardware_version:
            self._hardware = np.array(
                [monitor.mock(name).hardware_features() for name in self.endpoint_names],
                dtype=float,
            )
            self._hardware_version = monitor.hardware_version
        return self._hardware

    def _fallback(self) -> np.ndarray:
        """Warm-up prediction per endpoint: ``default / max(speed, 1e-9)``."""
        if self._fallback_row is None:
            context = self._context
            default = self._default if self._default is not None else 1.0
            self._fallback_row = np.array(
                [
                    default / max(context.speed_factors.get(name, 1.0), 1e-9)
                    for name in self.endpoint_names
                ]
            )
        return self._fallback_row

    def _fill_exec(self, stale: List[Tuple["Task", int]], generation: int) -> None:
        context = self._context
        by_function: Dict[str, List[Tuple["Task", int]]] = defaultdict(list)
        for task, row in stale:
            by_function[task.name].append((task, row))
        hardware = self._hardware_matrix()
        width = len(self.endpoint_names)
        for function_name, items in by_function.items():
            inputs = np.array(
                [context.estimated_input_mb(task) for task, _ in items], dtype=float
            )
            rows = np.fromiter((row for _, row in items), dtype=np.intp, count=len(items))
            matrix = context.execution_profiler.predict_time_matrix(
                function_name, inputs, hardware
            )
            if matrix is None:
                self._exec[rows] = self._fallback()
            else:
                self._exec[rows] = matrix
            self._exec_stamp[rows] = generation
            self.cells_filled += len(items) * width

    def _fill_staging(self, stale: List[Tuple["Task", int, int]]) -> None:
        estimated_input_mb = self._context.estimated_input_mb
        for task, row, generation in stale:
            if task.input_files:
                table, key = self._file_rows, self._stag_inputs[row]
            else:
                table, key = self._nofile_rows, estimated_input_mb(task)
            values = table.get(key)
            if values is None:
                values = self._staging_row(task)
                if len(table) >= _STAGING_ROWS_CAP:
                    table.clear()
                table[key] = values
                self.staging_rows_built += 1
            else:
                self.staging_rows_reused += 1
            self._stag[row] = values
            self._stag_stamp[row] = generation
        self.cells_filled += len(stale) * len(self.endpoint_names)

    def _staging_row(self, task: "Task") -> np.ndarray:
        """One row of predicted staging times, an endpoint per cell.

        The accumulation order (files outer, endpoints inner, contributions
        added in file order) matches
        :meth:`~repro.sched.base.SchedulingContext.predicted_staging_time`
        exactly so the cells are bit-identical — including the data-plane
        gate: multi-source (cheapest replica) predictions when the plane is
        enabled, primary-replica predictions when it is not.
        """
        context = self._context
        names = self.endpoint_names
        row = np.zeros(len(names))
        transfer = context.transfer_profiler
        multi_source = context.config.enable_dataplane
        if task.input_files:
            for file in task.input_files:
                size = file.size_mb
                if size <= 0:
                    continue
                if multi_source:
                    sources = context.staging_sources(file)
                    if not sources:
                        continue
                    for column, name in enumerate(names):
                        if file.available_at(name):
                            continue
                        row[column] += min(
                            transfer.predict_transfer_time(src, name, size)
                            for src in sources
                        )
                    continue
                source = file.primary_location
                if source is None:
                    continue
                for column, name in enumerate(names):
                    if file.available_at(name):
                        continue
                    row[column] += transfer.predict_transfer_time(source, name, size)
            return row
        size = context.estimated_input_mb(task)
        if size > 0 and len(names) > 1:
            for column, name in enumerate(names):
                source = names[0] if names[0] != name else names[1]
                row[column] = transfer.predict_transfer_time(source, name, size)
        return row


class EndpointStateVectors:
    """Incremental per-endpoint backlog accumulators for EFT selection."""

    def __init__(self, monitor: "EndpointMonitor", endpoint_names: Sequence[str]) -> None:
        self.names: List[str] = list(endpoint_names)
        self._index = {name: column for column, name in enumerate(self.names)}
        count = len(self.names)
        self.active = np.zeros(count, dtype=np.int64)
        self.busy = np.zeros(count, dtype=np.int64)
        self.pending = np.zeros(count, dtype=np.int64)
        self.claimed = np.zeros(count, dtype=np.int64)
        self._idle = np.zeros(count, dtype=np.int64)
        self._workers = np.ones(count, dtype=np.int64)
        self._seen_state_version = -1
        self.sync(monitor, force=True)

    # ----------------------------------------------------------------- update
    def sync(self, monitor: "EndpointMonitor", force: bool = False) -> None:
        """Re-read the mocks, but only when the monitor's state moved."""
        if not force and monitor.state_version == self._seen_state_version:
            return
        self._seen_state_version = monitor.state_version
        changed = False
        for column, name in enumerate(self.names):
            mock = monitor.mock(name)
            if (
                self.active[column] != mock.active_workers
                or self.busy[column] != mock.busy_workers
                or self.pending[column] != mock.pending_tasks
            ):
                self.active[column] = mock.active_workers
                self.busy[column] = mock.busy_workers
                self.pending[column] = mock.pending_tasks
                changed = True
        if changed or force:
            np.maximum(self.active - self.busy, 0, out=self._idle)
            np.maximum(self.active, 1, out=self._workers)

    def add_claim(self, endpoint: str, count: int) -> None:
        column = self._index.get(endpoint)
        if column is not None:
            self.claimed[column] += count

    # ---------------------------------------------------------------- queries
    def free_capacity(self) -> np.ndarray:
        """Mocked free workers per endpoint (``MockEndpoint.free_capacity``)."""
        return np.maximum(self.active - self.busy - self.pending, 0)

    def finish_row(self, exec_row: np.ndarray, stag_row: np.ndarray) -> np.ndarray:
        """Estimated finish time per endpoint for one task.

        ``max(staging, wait) + execution``, where ``wait`` is the backlog
        heading to the endpoint beyond its idle workers (``pending + claimed
        - idle``, floored at 0) drained at ``execution / workers`` per task
        (``workers`` = active workers, at least 1), plus half a task's
        service time when no worker is idle: every worker is busy, so expect
        to wait about that long for one to free up before the backlog even
        starts draining.
        """
        idle = self._idle
        backlog = self.pending + self.claimed - idle
        wait = np.maximum(0, backlog) * exec_row / self._workers
        wait = np.where(idle <= 0, wait + 0.5 * exec_row, wait)
        return np.maximum(stag_row, wait) + exec_row
