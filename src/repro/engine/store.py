"""Struct-of-arrays task store — the columnar engine core.

The scheduler's hot path went columnar in ``sched/vector.py`` (numpy
prediction matrices keyed by stable int rows); this module applies the same
treatment to the *engine's* task state.  A :class:`TaskStore` keeps every
task's state code, life-cycle timestamps, core count, input size, priority
and assigned endpoint in flat numpy arrays keyed by a stable integer row
minted at insertion.  It is the only copy of those fields from the moment a
task exists: :meth:`TaskStore.add` registers the new row READY or PENDING,
every later change is a transition on it, a :class:`~repro.core.dag.Task`
reads and writes its row (the task keeps the row index, the graph the task),
and the engine's hot path reads the columns directly, so bulk queries are
array reductions.  :meth:`TaskStore.add`
reallocates the arrays as they grow: never hold a column across it.

Endpoints are interned to small ints; the aggregates the run loop reads every
round — staged workers' worth of tasks and tasks awaiting dispatch per
endpoint (the one claim count every scheduler reads), the undispatched total,
the terminal total — are plain Python ints and dicts maintained in O(1) per
state or endpoint change, so reading them costs an attribute access, not an
array reduction.

Rows are never recycled: a task graph only grows (tasks reach terminal
states but are not removed), so the arrays are bounded by the all-time task
count of one workflow, exactly like the graph's task dict.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dag import (PENDING_CODE, READY_CODE, STAGED_CODE, STATE_CODES, STATES,
                            TERMINAL_STATES, TIMESTAMP_FIELDS, TaskState, state_codes)

__all__ = ["TaskStore"]

_PENDING_DISPATCH = state_codes(TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED)
_TERMINAL_CODES = state_codes(*TERMINAL_STATES)

#: The timestamp column a transition into each state stamps, by state code
#: (``None``: PENDING stamps none).
_STAMP_OF_CODE = tuple(
    {
        TaskState.READY: "ready",
        TaskState.SCHEDULED: "scheduled",
        TaskState.STAGING: "staging_started",
        TaskState.STAGED: "staging_done",
        TaskState.DISPATCHED: "dispatched",
        TaskState.RUNNING: "started",
        TaskState.COMPLETED: "completed",
        TaskState.FAILED: "completed",
        TaskState.CANCELLED: "completed",
    }.get(state)
    for state in STATES
)

_GROW = 1024


class TaskStore:
    """Columnar (struct-of-arrays) owner of one task graph's task state."""

    def __init__(self) -> None:
        self._capacity = _GROW
        #: Rows registered: the graph's task count, as a plain read.
        self.size = 0
        self.state = np.full(self._capacity, PENDING_CODE, dtype=np.int8)
        self.cores = np.ones(self._capacity, dtype=np.int32)
        self.input_mb = np.zeros(self._capacity, dtype=np.float64)
        self.priority = np.zeros(self._capacity, dtype=np.float64)
        #: Interned endpoint index (-1 = unassigned).
        self.endpoint = np.full(self._capacity, -1, dtype=np.int32)
        self.timestamps = {
            name: np.full(self._capacity, np.nan, dtype=np.float64)
            for name in TIMESTAMP_FIELDS
        }


        #: Interned endpoint names, by index (read-only outside the store).
        self.endpoint_names: List[str] = []
        self._endpoint_index: Dict[str, int] = {}

        # Running aggregates, updated where state and endpoint change
        # (:meth:`set_state`, :meth:`set_endpoint`, :meth:`_account`).
        #: Workers' worth of STAGED tasks per endpoint (non-zero entries).
        #: Live: the serving layer hands this very dict to its arbitration
        #: policy as the tenant's dispatch demand.
        self.staged_cores: Dict[str, int] = {}
        #: Bumped whenever :attr:`staged_cores` changes.
        self.staged_version = 0
        #: Tasks placed but not yet dispatched, per endpoint (non-zero
        #: entries; live, read-only outside the store): the schedulers'
        #: claims (:meth:`pending_on`), the metrics sampler's pending series ...
        self.pending_dispatch: Dict[str, int] = {}
        #: ... written through to a federation-wide per-endpoint sum while
        #: the serving layer counts this store in it (:meth:`share_pending`) ...
        self._shared_pending: Optional[Dict[str, int]] = None
        #: ... and in total.
        self.undispatched_count = 0
        #: Tasks in a terminal state.
        self.terminal = 0
        self._state_counts = [0] * len(STATES)
        #: Bumped whenever a row's endpoint changes or a row enters or leaves
        #: the pending-dispatch states, so every change of :meth:`pending_on`
        #: and of the engine's undispatched index moves it: what the
        #: re-scheduling candidates and their targets are keyed on (see
        #: :mod:`repro.engine.periodic`), and what DHA's claim column is
        #: refilled on (:class:`~repro.sched.vector.EndpointStateVectors`).
        self.pending_version = 0

    # --------------------------------------------------------------- basics
    def __len__(self) -> int:
        return self.size

    def intern_endpoint(self, name: str) -> int:
        idx = self._endpoint_index.get(name)
        if idx is None:
            idx = len(self.endpoint_names)
            self._endpoint_index[name] = idx
            self.endpoint_names.append(name)
        return idx

    def _grow(self) -> None:
        new_capacity = self._capacity + max(_GROW, self._capacity // 2)
        for name in ("state", "cores", "input_mb", "priority", "endpoint"):
            old = getattr(self, name)
            fill = -1 if name == "endpoint" else 0
            grown = np.full(new_capacity, fill, dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)
        for name, old in self.timestamps.items():
            grown = np.full(new_capacity, np.nan, dtype=np.float64)
            grown[: self.size] = old[: self.size]
            self.timestamps[name] = grown
        self._capacity = new_capacity

    # ------------------------------------------------------------- mutation
    def add(self, *, ready: bool, now: float, cores: int, input_mb: float,
            endpoint: Optional[str] = None) -> int:
        """Register a new task — READY (its ``created`` and ``ready`` stamped
        at ``now``) or PENDING (``created`` only), on ``endpoint`` when given
        — and return its stable row index.  A new row awaits no dispatch and
        is not terminal, so no endpoint aggregate moves."""
        if self.size == self._capacity:
            self._grow()
        row = self.size
        self.size += 1
        code = READY_CODE if ready else PENDING_CODE
        self.state[row] = code
        self._state_counts[code] += 1
        self.cores[row] = cores
        self.input_mb[row] = input_mb
        # Rows are never recycled: the priority is still its 0.0 fill, the
        # endpoint its -1 and the other stamps their NaN.
        if endpoint is not None:
            self.endpoint[row] = self.intern_endpoint(endpoint)
        timestamps = self.timestamps
        timestamps["created"][row] = now
        if ready:
            timestamps["ready"][row] = now
        return row

    def set_state(self, row: int, state: TaskState, now: Optional[float] = None) -> None:
        """Move a row to ``state``, updating counts and endpoint aggregates,
        and, when ``now`` is given, stamp the timestamp the transition stamps
        (also when the row already is in ``state``)."""
        new = STATE_CODES[state]
        if now is not None:
            stamp = _STAMP_OF_CODE[new]
            if stamp is not None:
                self.timestamps[stamp][row] = now
        old = int(self.state[row])
        if old == new:
            return
        self.state[row] = new
        self._state_counts[old] -= 1
        self._state_counts[new] += 1
        self.terminal += (new in _TERMINAL_CODES) - (old in _TERMINAL_CODES)
        # Only the pending-dispatch states (STAGED among them) feed the
        # endpoint aggregates.
        was_pending = old in _PENDING_DISPATCH
        is_pending = new in _PENDING_DISPATCH
        if was_pending or is_pending:
            if was_pending != is_pending:
                self.pending_version += 1
            ep = int(self.endpoint[row])
            if ep >= 0:
                self._account(row, old, new, ep, ep)

    def set_endpoint(self, row: int, endpoint: Optional[str]) -> None:
        old = int(self.endpoint[row])
        new = -1 if endpoint is None else self.intern_endpoint(endpoint)
        if old == new:
            return
        self.endpoint[row] = new
        self.pending_version += 1
        code = int(self.state[row])
        if code in _PENDING_DISPATCH:
            self._account(row, code, code, old, new)

    def _account(self, row: int, old_code: int, new_code: int, old_ep: int, new_ep: int) -> None:
        """Incrementally maintain the per-endpoint demand aggregates (a no-op
        unless ``old_code`` or ``new_code`` is a pending-dispatch state, so
        callers skip it then).

        Both dicts keep non-zero entries only (``staged_cores`` readers rely
        on it): a decrement that reaches zero deletes the entry, and an
        increment never reaches zero (counts and cores are >= 1).
        """
        pending, staged = self.pending_dispatch, self.staged_cores
        shared = self._shared_pending
        if old_ep >= 0:
            name = self.endpoint_names[old_ep]
            if old_code in _PENDING_DISPATCH:
                left = pending.get(name, 0) - 1
                if left:
                    pending[name] = left
                else:
                    del pending[name]
                self.undispatched_count -= 1
                if shared is not None:
                    shared[name] -= 1
            if old_code == STAGED_CODE:
                left = staged.get(name, 0) - int(self.cores[row])
                if left:
                    staged[name] = left
                else:
                    del staged[name]
                self.staged_version += 1
        if new_ep >= 0:
            name = self.endpoint_names[new_ep]
            if new_code in _PENDING_DISPATCH:
                pending[name] = pending.get(name, 0) + 1
                self.undispatched_count += 1
                if shared is not None:
                    shared[name] = shared.get(name, 0) + 1
            if new_code == STAGED_CODE:
                staged[name] = staged.get(name, 0) + int(self.cores[row])
                self.staged_version += 1

    # -------------------------------------------------------------- queries
    def state_count(self, state: TaskState) -> int:
        return self._state_counts[STATE_CODES[state]]

    def counts(self) -> Dict[str, int]:
        """Non-zero task counts per state value, in state declaration order."""
        return {
            STATES[code].value: count
            for code, count in enumerate(self._state_counts)
            if count
        }

    def rows_in_states(self, *states: TaskState) -> np.ndarray:
        """Row indices of tasks in any of ``states``, in insertion order."""
        view = self.state[: self.size]
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
        ready = self.timestamps["ready"][: self.size]
        started = self.timestamps["started"][: self.size]
        mask = ~np.isnan(ready) & ~np.isnan(started)
        return np.maximum(0.0, started[mask] - ready[mask])

    def pending_on(self, endpoint: str) -> int:
        """Tasks placed on ``endpoint`` but not yet dispatched."""
        return self.pending_dispatch.get(endpoint, 0)

    def pending_counts(self, endpoints: Sequence[str]) -> List[int]:
        """:meth:`pending_on` of each of ``endpoints``, in order."""
        return list(map(self.pending_dispatch.get, endpoints, repeat(0)))

    def share_pending(self, totals: Optional[Dict[str, int]]) -> None:
        """Keep ``totals`` — a per-endpoint sum over several stores — current
        with this store's placed-but-undispatched counts.

        The serving layer calls this when the tenant joins its active set
        (the counts held now are added, every later change writes through)
        and with ``None`` when it leaves (they are taken out again).  Sharing
        the dict already shared is a no-op, so a re-join never counts twice.
        """
        for sign, target in ((-1, self._shared_pending), (1, totals)):
            if target is not None:
                for name, count in self.pending_dispatch.items():
                    target[name] = target.get(name, 0) + sign * count
        self._shared_pending = totals

    def undispatched_by_endpoint(self) -> Dict[str, int]:
        """Tasks placed but not yet dispatched, per endpoint (non-zero)."""
        return self._in_intern_order(self.pending_dispatch)

    def _in_intern_order(self, counts: Dict[str, int]) -> Dict[str, int]:
        # A stable key order whatever order the entries came and went in.
        return {name: counts[name] for name in self.endpoint_names if name in counts}
