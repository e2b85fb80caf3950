"""Struct-of-arrays task store — the columnar engine core.

The scheduler's hot path went columnar in ``sched/vector.py`` (numpy
prediction matrices keyed by stable int rows); this module applies the same
treatment to the *engine's* task state.  A :class:`TaskStore` keeps every
task's state code, life-cycle timestamps, core count, input size, priority
and assigned endpoint in flat numpy arrays keyed by a stable integer row
minted at insertion.  :class:`~repro.core.dag.Task` objects stay around as
the object API, but become lazy views: their state/endpoint/priority setters
and their :class:`~repro.core.dag.TaskTimestamps` mirror every write into
the arrays, so bulk queries — ready-set extraction, wait-time scans — are
array reductions instead of Python loops over task objects.

Endpoints are interned to small ints; the aggregates the run loop reads every
round — staged workers' worth of tasks and tasks awaiting dispatch per
endpoint, the undispatched total, the terminal total — are plain Python ints
and dicts maintained in O(1) per state or endpoint change, so reading them
costs an attribute access, not an array reduction.

Rows are never recycled: a task graph only grows (tasks reach terminal
states but are not removed), so the arrays are bounded by the all-time task
count of one workflow, exactly like the object dict they shadow.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.dag import TIMESTAMP_FIELDS, TaskState

__all__ = ["TaskStore"]

#: Stable int code per state, in declaration order.
STATE_CODES: Dict[TaskState, int] = {state: i for i, state in enumerate(TaskState)}
_STATES: List[TaskState] = list(TaskState)

_PENDING_DISPATCH = frozenset(
    {
        STATE_CODES[TaskState.SCHEDULED],
        STATE_CODES[TaskState.STAGING],
        STATE_CODES[TaskState.STAGED],
    }
)
_STAGED = STATE_CODES[TaskState.STAGED]
_TERMINAL_CODES = (
    STATE_CODES[TaskState.COMPLETED],
    STATE_CODES[TaskState.FAILED],
    STATE_CODES[TaskState.CANCELLED],
)

_GROW = 1024


def _add(counts: Dict[str, int], key: str, delta: int) -> None:
    """``counts[key] += delta``, keeping only non-zero entries."""
    value = counts.get(key, 0) + delta
    if value:
        counts[key] = value
    else:
        del counts[key]


class TaskStore:
    """Columnar (struct-of-arrays) mirror of one task graph's task state."""

    def __init__(self) -> None:
        self._capacity = _GROW
        self._size = 0
        self.state = np.full(self._capacity, STATE_CODES[TaskState.PENDING], dtype=np.int8)
        self.cores = np.ones(self._capacity, dtype=np.int32)
        self.input_mb = np.zeros(self._capacity, dtype=np.float64)
        self.priority = np.zeros(self._capacity, dtype=np.float64)
        #: Interned endpoint index (-1 = unassigned).
        self.endpoint = np.full(self._capacity, -1, dtype=np.int32)
        self.timestamps = {
            name: np.full(self._capacity, np.nan, dtype=np.float64)
            for name in TIMESTAMP_FIELDS
        }

        self._ids: List[str] = []
        self._rows: Dict[str, int] = {}

        # Endpoint interning.
        self._endpoint_names: List[str] = []
        self._endpoint_index: Dict[str, int] = {}

        # Running aggregates, updated where state and endpoint change
        # (:meth:`add`, :meth:`set_state`, :meth:`_account`).
        #: Workers' worth of STAGED tasks per endpoint (non-zero entries).
        #: Live: the serving layer hands this very dict to its arbitration
        #: policy as the tenant's dispatch demand.
        self.staged_cores: Dict[str, int] = {}
        #: Bumped whenever :attr:`staged_cores` changes.
        self.staged_version = 0
        #: Tasks placed but not yet dispatched, per endpoint (non-zero) ...
        self._pending_dispatch: Dict[str, int] = {}
        #: ... and in total.
        self.undispatched_count = 0
        #: Tasks in a terminal state.
        self.terminal = 0
        self._state_counts = [0] * len(_STATES)

    # --------------------------------------------------------------- basics
    def __len__(self) -> int:
        return self._size

    def row_of(self, task_id: str) -> int:
        return self._rows[task_id]

    def task_id_of(self, row: int) -> str:
        return self._ids[row]

    def intern_endpoint(self, name: str) -> int:
        idx = self._endpoint_index.get(name)
        if idx is None:
            idx = len(self._endpoint_names)
            self._endpoint_index[name] = idx
            self._endpoint_names.append(name)
        return idx

    def _grow(self) -> None:
        new_capacity = self._capacity + max(_GROW, self._capacity // 2)
        for name in ("state", "cores", "input_mb", "priority", "endpoint"):
            old = getattr(self, name)
            fill = -1 if name == "endpoint" else 0
            grown = np.full(new_capacity, fill, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)
        for name, old in self.timestamps.items():
            grown = np.full(new_capacity, np.nan, dtype=np.float64)
            grown[: self._size] = old[: self._size]
            self.timestamps[name] = grown
        self._capacity = new_capacity

    # ------------------------------------------------------------- mutation
    def add(self, task_id: str, *, state: TaskState, cores: int, input_mb: float,
            priority: float, endpoint: Optional[str]) -> int:
        """Register a task and return its stable row index."""
        if self._size == self._capacity:
            self._grow()
        row = self._size
        self._size += 1
        self._ids.append(task_id)
        self._rows[task_id] = row
        code = STATE_CODES[state]
        self.state[row] = code
        self.cores[row] = cores
        self.input_mb[row] = input_mb
        self.priority[row] = priority
        ep = -1 if endpoint is None else self.intern_endpoint(endpoint)
        self.endpoint[row] = ep
        self._state_counts[code] += 1
        if code in _TERMINAL_CODES:
            self.terminal += 1
        if ep >= 0:
            self._account(row, 0, code, -1, ep)
        return row

    def set_state(self, row: int, state: TaskState) -> None:
        """Move a row to ``state``, updating counts and endpoint aggregates."""
        old = int(self.state[row])
        new = STATE_CODES[state]
        if old == new:
            return
        self.state[row] = new
        self._state_counts[old] -= 1
        self._state_counts[new] += 1
        self.terminal += (new in _TERMINAL_CODES) - (old in _TERMINAL_CODES)
        ep = int(self.endpoint[row])
        if ep >= 0:
            self._account(row, old, new, ep, ep)

    def set_endpoint(self, row: int, endpoint: Optional[str]) -> None:
        old = int(self.endpoint[row])
        new = -1 if endpoint is None else self.intern_endpoint(endpoint)
        if old == new:
            return
        self.endpoint[row] = new
        code = int(self.state[row])
        self._account(row, code, code, old, new)

    def _account(self, row: int, old_code: int, new_code: int, old_ep: int, new_ep: int) -> None:
        """Incrementally maintain the per-endpoint demand aggregates."""
        if old_ep >= 0:
            name = self._endpoint_names[old_ep]
            if old_code in _PENDING_DISPATCH:
                _add(self._pending_dispatch, name, -1)
                self.undispatched_count -= 1
            if old_code == _STAGED:
                _add(self.staged_cores, name, -int(self.cores[row]))
                self.staged_version += 1
        if new_ep >= 0:
            name = self._endpoint_names[new_ep]
            if new_code in _PENDING_DISPATCH:
                _add(self._pending_dispatch, name, 1)
                self.undispatched_count += 1
            if new_code == _STAGED:
                _add(self.staged_cores, name, int(self.cores[row]))
                self.staged_version += 1

    def set_timestamp(self, row: int, name: str, value: Optional[float]) -> None:
        self.timestamps[name][row] = np.nan if value is None else value

    def get_timestamp(self, row: int, name: str) -> Optional[float]:
        value = self.timestamps[name][row]
        return None if np.isnan(value) else float(value)

    # -------------------------------------------------------------- queries
    def state_count(self, state: TaskState) -> int:
        return self._state_counts[STATE_CODES[state]]

    def counts(self) -> Dict[str, int]:
        """Non-zero task counts per state value, in state declaration order."""
        return {
            _STATES[code].value: count
            for code, count in enumerate(self._state_counts)
            if count
        }

    def rows_in_states(self, *states: TaskState) -> np.ndarray:
        """Row indices of tasks in any of ``states``, in insertion order."""
        view = self.state[: self._size]
        codes = [STATE_CODES[s] for s in states]
        mask = view == codes[0]
        for code in codes[1:]:
            mask |= view == code
        return np.nonzero(mask)[0]

    def wait_values(self) -> np.ndarray:
        """``max(0, started - ready)`` per task with both stamps, row order.

        Byte-for-byte the values the scalar scan over ``task.timestamps``
        produces: identical IEEE subtraction on the identical float64 values,
        in the identical (insertion) order.
        """
        ready = self.timestamps["ready"][: self._size]
        started = self.timestamps["started"][: self._size]
        mask = ~np.isnan(ready) & ~np.isnan(started)
        return np.maximum(0.0, started[mask] - ready[mask])

    def wait_times(self) -> List[float]:
        """:meth:`wait_values` as a plain Python list."""
        return self.wait_values().tolist()

    def staged_demand(self) -> Dict[str, int]:
        """Workers' worth of STAGED tasks per endpoint (non-zero entries)."""
        return self._in_intern_order(self.staged_cores)

    def undispatched_by_endpoint(self) -> Dict[str, int]:
        """Tasks placed but not yet dispatched, per endpoint (non-zero)."""
        return self._in_intern_order(self._pending_dispatch)

    def _in_intern_order(self, counts: Dict[str, int]) -> Dict[str, int]:
        # A stable key order whatever order the entries came and went in.
        return {name: counts[name] for name in self._endpoint_names if name in counts}
