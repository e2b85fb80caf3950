"""The snapshot file format: versioned, checksummed, atomically written.

A snapshot file is plain text in three parts::

    repro-snapshot <schema_version>\\n
    <sha256 hex of the payload bytes>\\n
    <payload: canonical JSON (sorted keys, compact separators)>

The checksum on line 2 covers every byte after its newline, so a torn write
(truncated payload), bit rot or manual tampering is detected on read and
surfaces as :class:`~repro.durability.errors.SnapshotCorruptError` — never
as a ``KeyError`` deep inside restore.  An unrecognised version on line 1
raises :class:`~repro.durability.errors.SnapshotVersionError`.  Writes go
through a temporary file + :func:`os.replace`, so a crash mid-write leaves
either the old snapshot or none — a half-written file can only exist under
the temporary name, which readers never look at.

Periodic checkpoints are named ``ckpt-<index>.snap`` inside a checkpoint
directory; :func:`latest_valid_snapshot` walks them newest-first and
returns the first one that still reads back clean, which is exactly the
fallback crash recovery needs when the newest checkpoint is torn.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.durability.errors import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
)

__all__ = [
    "SCHEMA_VERSION",
    "Snapshot",
    "checkpoint_path",
    "latest_valid_snapshot",
    "read_snapshot",
    "write_snapshot",
]

#: Format version this build writes and the only one it reads.  Version 2
#: dropped the ``columnar`` field from the replay recipe (``scenario``),
#: version 3 the ``vectorized`` field.
SCHEMA_VERSION = 3

_MAGIC = "repro-snapshot"
_CKPT_PATTERN = re.compile(r"^ckpt-(\d+)\.snap$")


@dataclass
class Snapshot:
    """One captured cut of a scenario run.

    ``scenario`` is the serialized :class:`~repro.scenarios.spec.ScenarioSpec`
    (the replay recipe), ``cut`` pins where in the run the capture happened
    (kind, time, per-recorder event-log counts and prefix digests), and
    ``sections`` holds the verification manifest of live state.
    """

    scenario: Dict[str, object]
    seed: int
    cut: Dict[str, object]
    sections: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def payload(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "seed": self.seed,
            "cut": self.cut,
            "sections": self.sections,
        }

    def payload_sha256(self) -> str:
        """Digest of the canonical payload bytes (the file's checksum)."""
        return hashlib.sha256(_canonical(self.payload())).hexdigest()


def _canonical(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def write_snapshot(snapshot: Snapshot, path: str | Path) -> Path:
    """Atomically write ``snapshot`` to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = _canonical(snapshot.payload())
    checksum = hashlib.sha256(body).hexdigest()
    data = f"{_MAGIC} {snapshot.schema_version}\n{checksum}\n".encode() + body
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return path


def read_snapshot(path: str | Path) -> Snapshot:
    """Read and validate a snapshot file.

    Raises :class:`SnapshotCorruptError` on bad magic, truncation or
    checksum mismatch, :class:`SnapshotVersionError` on an unknown
    ``schema_version``, :class:`SnapshotError` when the file is missing.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc

    header, _, rest = data.partition(b"\n")
    parts = header.decode("utf-8", errors="replace").split()
    if len(parts) != 2 or parts[0] != _MAGIC:
        raise SnapshotCorruptError(f"{path}: not a repro snapshot (bad magic line)")
    try:
        version = int(parts[1])
    except ValueError:
        raise SnapshotCorruptError(f"{path}: malformed schema version {parts[1]!r}") from None
    if version != SCHEMA_VERSION:
        raise SnapshotVersionError(
            f"{path}: unknown schema_version {version} (this build reads {SCHEMA_VERSION})"
        )

    checksum_line, sep, body = rest.partition(b"\n")
    if not sep:
        raise SnapshotCorruptError(f"{path}: truncated snapshot (no payload)")
    expected = checksum_line.decode("utf-8", errors="replace").strip()
    actual = hashlib.sha256(body).hexdigest()
    if actual != expected:
        raise SnapshotCorruptError(
            f"{path}: payload checksum mismatch (torn or corrupt snapshot)"
        )
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:  # checksum collision is ~impossible;
        # still map a malformed payload onto the typed error.
        raise SnapshotCorruptError(f"{path}: payload is not valid JSON") from exc
    try:
        return Snapshot(
            scenario=payload["scenario"],
            seed=int(payload["seed"]),
            cut=payload["cut"],
            sections=payload.get("sections", {}),
            schema_version=int(payload["schema_version"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptError(f"{path}: payload is missing required fields") from exc


def checkpoint_path(directory: str | Path, index: int) -> Path:
    """Canonical file name of periodic checkpoint ``index``."""
    return Path(directory) / f"ckpt-{index:05d}.snap"


def latest_valid_snapshot(
    directory: str | Path,
) -> Tuple[Optional[Path], Optional[Snapshot], List[str]]:
    """Newest checkpoint in ``directory`` that reads back clean.

    Returns ``(path, snapshot, skipped)`` where ``skipped`` names the newer
    checkpoints that failed validation (torn/corrupt/unknown version) and
    were passed over.  ``(None, None, skipped)`` when none is usable.
    """
    directory = Path(directory)
    candidates: List[Tuple[int, Path]] = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _CKPT_PATTERN.match(entry.name)
            if match:
                candidates.append((int(match.group(1)), entry))
    skipped: List[str] = []
    for _, path in sorted(candidates, reverse=True):
        try:
            return path, read_snapshot(path), skipped
        except SnapshotError:
            skipped.append(path.name)
    return None, None, skipped
