"""Durability: versioned snapshot/restore of the full serving state.

The orchestrator is the federation's single point of failure — this package
removes it.  A snapshot is a versioned, checksummed file pairing (a) the
*replay recipe* (the scenario spec's payload dict + seed + cut position) with
(b) *state sections* captured from the live run: kernel counters, every
named RNG stream's bit-generator state, per-tenant task graphs and columnar
``TaskStore`` columns, the dataplane's replica catalog and in-flight
transfer jobs, scheduler claims and the serving layer's arbitration state.

Restore is a **deterministic replay**: the spec is re-executed from t=0 in a
fresh process with the snapshot point armed in *verify* mode; at the cut the
captured sections are checked against the live state (any divergence raises
:class:`SnapshotStateMismatch`), and the remaining event log must hash
byte-identically to the uninterrupted run's tail — the replay proof CI
gates on.  :class:`OrchestratorCrash` dynamics entries tear the run down
mid-storm and drive recovery from the latest valid periodic checkpoint
(torn/corrupt files are detected by the embedded checksum and skipped).
"""

from repro.durability.errors import (
    OrchestratorCrashed,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotStateMismatch,
    SnapshotVersionError,
)
from repro.durability.runtime import (
    DurabilityController,
    DurabilityOptions,
    load_restore_snapshot,
    reset_global_id_counters,
)
from repro.durability.snapshot import (
    SCHEMA_VERSION,
    Snapshot,
    latest_valid_snapshot,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "DurabilityController",
    "DurabilityOptions",
    "OrchestratorCrashed",
    "SCHEMA_VERSION",
    "Snapshot",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotStateMismatch",
    "SnapshotVersionError",
    "latest_valid_snapshot",
    "load_restore_snapshot",
    "read_snapshot",
    "reset_global_id_counters",
    "write_snapshot",
]
