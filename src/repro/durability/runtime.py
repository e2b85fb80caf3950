"""The durability controller: snapshot points, checkpoints, crash recovery.

One :class:`DurabilityController` is wired into a scenario attempt by
:func:`repro.scenarios.spec.run_scenario` at a **fixed call-site** (right
after the dynamics timeline is installed, before the workload is built).
That fixed position matters: every kernel event the controller schedules
consumes a sequence number, and the capture run and the restore run must
consume them at identical positions for their event logs to stay
byte-identical.  The controller therefore always arms the same *shape* of
events for a given spec — a one-shot cut point, the periodic checkpoint
chain, and one entry per orchestrator crash (live or already-fired no-op) —
and only the callbacks differ between capture and verify mode.  All capture
callbacks are read-only with respect to the simulation.

Restore is deterministic replay: the run re-executes from t=0; at the cut
the controller checks the recorders' event-log counts and prefix digests
and every captured state section against the live run, then marks the tail
start.  The tail digest over the remaining event log is the replay proof.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.durability.capture import (
    capture_sections,
    make_cut,
    recorder_prefix_digest,
    verify_sections,
)
from repro.durability.errors import OrchestratorCrashed, SnapshotError
from repro.durability.snapshot import Snapshot, checkpoint_path, write_snapshot
from repro.durability.specio import describe_mismatch, spec_to_payload

__all__ = [
    "DurabilityController",
    "DurabilityOptions",
    "RunContext",
    "load_restore_snapshot",
    "reset_global_id_counters",
]


def reset_global_id_counters() -> None:
    """Restart the process-global task/file/ticket/transfer id counters.

    Ordinary runs never care about the absolute values of these ids (event
    ``describe()`` tuples deliberately exclude them), but durability capture
    pins raw ids into snapshot sections — so every durability-engaged
    attempt starts the counters from zero, making a replay in the *same*
    process produce the same ids a fresh process would.
    """
    import itertools

    from repro.core import dag
    from repro.data import manager as data_manager_module
    from repro.data import remote_file, transfer

    dag._task_counter = itertools.count()
    remote_file._file_counter = itertools.count()
    data_manager_module._ticket_counter = itertools.count()
    transfer._transfer_counter = itertools.count()


@dataclass
class DurabilityOptions:
    """CLI/API-level durability knobs of one :func:`run_scenario` call."""

    #: Capture a one-shot snapshot when simulated time reaches this.
    snapshot_at: Optional[float] = None
    #: Where the one-shot snapshot is written (``None`` keeps it in memory).
    snapshot_path: Optional[str] = None
    #: Restore (replay + verify) from this snapshot file.
    restore_from: Optional[str] = None
    #: Directory for periodic ``ckpt-*.snap`` files (the scenario's
    #: ``checkpoint_interval_s`` drives the cadence).
    checkpoint_dir: Optional[str] = None

    @property
    def engaged(self) -> bool:
        return (
            self.snapshot_at is not None
            or self.restore_from is not None
            or self.checkpoint_dir is not None
        )


class RunContext:
    """The live objects of one scenario attempt the controller captures.

    ``manager`` is the attempt's federation
    (:class:`~repro.serving.manager.WorkflowManager`); ``engines`` and
    ``recorders`` are keyed by workflow id ("" for the single-workflow
    client's lone tenant).
    """

    def __init__(self, env, spec, seed: int, manager) -> None:
        self.env = env
        self.spec = spec
        self.seed = int(seed)
        self.manager = manager
        self.engines: Dict[str, object] = {}
        self.recorders: Dict[str, object] = {}
        #: The open-loop :class:`~repro.streaming.service.StreamingService`
        #: of a streaming attempt (``None`` on batch paths).
        self.streaming = None


class DurabilityController:
    """Arms the durability events of one attempt and owns its cut state."""

    def __init__(
        self,
        ctx: RunContext,
        *,
        snapshot_at: Optional[float] = None,
        snapshot_path: Optional[str] = None,
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        restore: Optional[Snapshot] = None,
        crashes: Sequence = (),
        crashes_fired: int = 0,
    ) -> None:
        if snapshot_at is not None and restore is not None:
            raise SnapshotError(
                "snapshot_at and restore are mutually exclusive within one attempt"
            )
        self.ctx = ctx
        self.snapshot_at = snapshot_at
        self.snapshot_path = snapshot_path
        self.checkpoint_interval_s = checkpoint_interval_s
        self.checkpoint_dir = checkpoint_dir
        self.restore = restore
        self.crashes = tuple(crashes)
        self.crashes_fired = int(crashes_fired)
        self._spec_payload = spec_to_payload(ctx.spec)
        #: Event-log lengths at the cut; the tail digest starts here.
        self.tail_marks: Optional[Dict[str, int]] = None
        #: The one-shot snapshot captured by this attempt (if any).
        self.captured: Optional[Snapshot] = None
        self.verified = False
        self.checkpoints_written = 0
        self.last_checkpoint_s: Optional[float] = None

    # ----------------------------------------------------------------- arm
    def install(self) -> None:
        """Schedule the attempt's durability events (fixed shape per spec)."""
        kernel = self.ctx.env.kernel
        if self.snapshot_at is not None:
            kernel.schedule_at(
                self.snapshot_at, self._oneshot_point, daemon=True,
                label="durability-snapshot",
            )
        elif self.restore is not None and self.restore.cut.get("kind") == "oneshot":
            kernel.schedule_at(
                float(self.restore.cut["time_s"]), self._oneshot_point,
                daemon=True, label="durability-verify",
            )
        if self.checkpoint_interval_s is not None:
            kernel.schedule_at(
                self.checkpoint_interval_s, self._ckpt_tick, 1,
                daemon=True, label="durability-ckpt",
            )
        for index, crash in enumerate(self.crashes):
            kernel.schedule_at(
                crash.at_s, self._crash_point, crash,
                index >= self.crashes_fired,
                daemon=True, label="durability-orch-crash",
            )

    # ------------------------------------------------------------ callbacks
    def _oneshot_point(self) -> None:
        if self.restore is not None:
            self._verify_cut("one-shot cut")
            return
        self.captured = self._make_snapshot("oneshot", 0)
        self.tail_marks = dict(self.captured.cut["log_counts"])
        if self.snapshot_path is not None:
            write_snapshot(self.captured, self.snapshot_path)

    def _ckpt_tick(self, index: int) -> None:
        cut = self.restore.cut if self.restore is not None else None
        if cut is not None and cut.get("kind") == "ckpt" and int(cut["index"]) == index:
            self._verify_cut(f"checkpoint {index}")
        else:
            snapshot = self._make_snapshot("ckpt", index)
            if self.checkpoint_dir is not None:
                write_snapshot(snapshot, checkpoint_path(self.checkpoint_dir, index))
            self.checkpoints_written += 1
            self.last_checkpoint_s = self.ctx.env.kernel.now()
        self.ctx.env.kernel.schedule_at(
            (index + 1) * self.checkpoint_interval_s, self._ckpt_tick, index + 1,
            daemon=True, label="durability-ckpt",
        )

    def _crash_point(self, crash, live: bool) -> None:
        if live:
            raise OrchestratorCrashed(crash.at_s, crash.restart_delay_s)

    # -------------------------------------------------------------- capture
    def _make_snapshot(self, kind: str, index: int) -> Snapshot:
        kernel = self.ctx.env.kernel
        log_counts = {
            key: len(recorder.entries)
            for key, recorder in sorted(self.ctx.recorders.items())
        }
        log_prefixes = {
            key: recorder_prefix_digest(recorder.entries)
            for key, recorder in sorted(self.ctx.recorders.items())
        }
        return Snapshot(
            scenario=self._spec_payload,
            seed=self.ctx.seed,
            cut=make_cut(
                kind, index, kernel.now(), kernel.events_processed,
                log_counts, log_prefixes,
            ),
            sections=capture_sections(self.ctx),
        )

    def _verify_cut(self, context: str) -> None:
        snapshot = self.restore
        cut = snapshot.cut
        for key, count in cut["log_counts"].items():
            recorder = self.ctx.recorders.get(key)
            if recorder is None:
                raise SnapshotError(
                    f"{context}: snapshot references unknown workflow {key!r}"
                )
            if len(recorder.entries) != count:
                raise SnapshotError(
                    f"{context}: replay produced {len(recorder.entries)} events for "
                    f"{key or 'the workflow'}, snapshot recorded {count}"
                )
            prefix = recorder_prefix_digest(recorder.entries, count)
            if prefix != cut["log_prefix_sha256"].get(key):
                raise SnapshotError(
                    f"{context}: replayed event-log prefix diverged for "
                    f"{key or 'the workflow'}"
                )
        verify_sections(snapshot.sections, capture_sections(self.ctx), context)
        self.verified = True
        self.tail_marks = dict(cut["log_counts"])

    # --------------------------------------------------------------- report
    def tail_digest(self) -> Tuple[str, int]:
        """SHA-256 over every recorder's post-cut entries, and their count."""
        if self.tail_marks is None:
            raise SnapshotError("no cut was reached; there is no tail to digest")
        digest = hashlib.sha256()
        total = 0
        for key in sorted(self.ctx.recorders):
            mark = self.tail_marks.get(key, 0)
            entries = self.ctx.recorders[key].entries
            digest.update(key.encode())
            digest.update(repr(entries[mark:]).encode())
            total += max(0, len(entries) - mark)
        return digest.hexdigest(), total

    def finish(self) -> Dict[str, object]:
        """The result's ``durability`` payload (raises if a cut was missed)."""
        payload: Dict[str, object] = {}
        if self.snapshot_at is not None:
            if self.captured is None:
                raise SnapshotError(
                    f"snapshot_at={self.snapshot_at:g}s was never reached "
                    "(the run finished earlier)"
                )
            tail, entries = self.tail_digest()
            payload["snapshot"] = {
                "at_s": round(float(self.snapshot_at), 6),
                "events_before_cut": int(self.captured.cut["events_processed"]),
                "payload_sha256": self.captured.payload_sha256(),
                "tail_digest": tail,
                "tail_entries": entries,
            }
        if self.restore is not None:
            if not self.verified:
                raise SnapshotError(
                    "the restore cut was never reached during replay "
                    "(snapshot taken beyond this run's end?)"
                )
            tail, entries = self.tail_digest()
            payload["restore"] = {
                "verified_at_s": float(self.restore.cut["time_s"]),
                "replayed_entries": sum(self.restore.cut["log_counts"].values()),
                "tail_digest": tail,
                "tail_entries": entries,
            }
            if self.restore.cut.get("kind") == "oneshot":
                # Only the explicit snapshot→restore pairing (what
                # check-replay verifies) reports which snapshot file it
                # loaded; a checkpoint-recovery artifact stays free of
                # engine-internal state digests.
                payload["restore"]["payload_sha256"] = self.restore.payload_sha256()
        if self.checkpoint_interval_s is not None:
            payload["checkpoints"] = {
                "interval_s": round(float(self.checkpoint_interval_s), 6),
                "written": self.checkpoints_written,
                "last_time_s": round(self.last_checkpoint_s, 6)
                if self.last_checkpoint_s is not None
                else None,
            }
        return payload


def load_restore_snapshot(path: str, spec, seed: int) -> Snapshot:
    """Read a snapshot and check it matches the scenario about to replay."""
    from repro.durability.snapshot import read_snapshot

    snapshot = read_snapshot(path)
    if snapshot.seed != int(seed):
        raise SnapshotError(
            f"snapshot {path} was taken with seed {snapshot.seed}, "
            f"this run uses {seed}"
        )
    diffs = describe_mismatch(spec, snapshot.scenario)
    if diffs:
        raise SnapshotError(
            f"snapshot {path} was taken from a different scenario "
            f"(differs at: {', '.join(diffs[:6])})"
        )
    return snapshot
