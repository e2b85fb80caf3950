"""The snapshot file format: versioning, checksums, corruption detection."""

import pytest

from repro.durability import (
    SCHEMA_VERSION,
    Snapshot,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    latest_valid_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.durability.snapshot import checkpoint_path

#: The magic line this build writes.
HEADER = f"repro-snapshot {SCHEMA_VERSION}\n".encode()


def _empty_snapshot(seed=0):
    """A minimal (pre-run) snapshot: no sections captured yet."""
    return Snapshot(
        scenario={"name": "unit", "seed": seed},
        seed=seed,
        cut={"kind": "oneshot", "index": 0, "time_s": 0.0,
             "events_processed": 0, "log_counts": {"": 0},
             "log_prefix_sha256": {"": "x"}},
    )


def _midrun_snapshot():
    """A snapshot carrying state sections, like a mid-run capture."""
    snap = _empty_snapshot(seed=7)
    snap.cut["time_s"] = 12.5
    snap.cut["log_counts"] = {"": 321}
    snap.sections = {
        "kernel": {"now": 12.5, "events_processed": 4},
        "rng": {"exec": {"state": {"state": 1, "inc": 2}}},
        "workflows": {"": {"tasks": 10, "graph_sha256": "abc"}},
    }
    return snap


@pytest.fixture(params=[_empty_snapshot, _midrun_snapshot],
                ids=["empty", "mid-run"])
def snapshot(request):
    return request.param()


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "s.snap")
        loaded = read_snapshot(path)
        assert loaded.scenario == snapshot.scenario
        assert loaded.seed == snapshot.seed
        assert loaded.cut == snapshot.cut
        assert loaded.sections == snapshot.sections
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.payload_sha256() == snapshot.payload_sha256()

    def test_write_creates_parent_directories(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "deep" / "er" / "s.snap")
        assert read_snapshot(path).seed == snapshot.seed

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path, snapshot):
        write_snapshot(snapshot, tmp_path / "s.snap")
        assert [p.name for p in tmp_path.iterdir()] == ["s.snap"]


class TestTypedErrors:
    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(tmp_path / "nope.snap")

    def test_unknown_schema_version(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "s.snap")
        data = path.read_bytes()
        assert data.startswith(HEADER)
        path.write_bytes(data.replace(HEADER, b"repro-snapshot 99\n", 1))
        with pytest.raises(SnapshotVersionError):
            read_snapshot(path)

    @pytest.mark.parametrize("version, toggle", [(1, "columnar"), (2, "vectorized")])
    def test_older_version_file_fails_with_the_formats_own_error(
        self, tmp_path, snapshot, version, toggle
    ):
        # Version 1 and 2 recipes carry an engine toggle (``columnar``,
        # ``vectorized``) that ``ScenarioSpec`` no longer has.  Such a file
        # describes the same scenario in an older format: it must be refused
        # as a *version* mismatch, not — field by field — as "a different
        # scenario".
        snapshot.schema_version = version
        snapshot.scenario[toggle] = True
        path = write_snapshot(snapshot, tmp_path / "old.snap")
        assert path.read_bytes().startswith(f"repro-snapshot {version}\n".encode())
        with pytest.raises(SnapshotVersionError, match="this build reads 3"):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "s.snap")
        path.write_bytes(b"not-a-snapshot 1\n" + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_malformed_version_token(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "s.snap")
        data = path.read_bytes()
        assert data.startswith(HEADER)
        path.write_bytes(data.replace(HEADER, b"repro-snapshot one\n", 1))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "s.snap")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - len(data) // 3])
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_truncated_to_header_only(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "s.snap")
        path.write_bytes(path.read_bytes().split(b"\n", 1)[0] + b"\n")
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path, snapshot):
        path = write_snapshot(snapshot, tmp_path / "s.snap")
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_missing_required_field_is_typed_not_keyerror(self, tmp_path):
        import hashlib
        import json

        body = json.dumps({"schema_version": SCHEMA_VERSION, "seed": 0}).encode()
        checksum = hashlib.sha256(body).hexdigest()
        path = tmp_path / "s.snap"
        path.write_bytes(HEADER + f"{checksum}\n".encode() + body)
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)


class TestLatestValidSnapshot:
    def test_picks_the_newest(self, tmp_path):
        for index in (1, 2, 3):
            snap = _empty_snapshot(seed=index)
            write_snapshot(snap, checkpoint_path(tmp_path, index))
        path, snap, skipped = latest_valid_snapshot(tmp_path)
        assert path.name == "ckpt-00003.snap"
        assert snap.seed == 3
        assert skipped == []

    def test_falls_back_past_a_torn_newest(self, tmp_path):
        for index in (1, 2):
            write_snapshot(_empty_snapshot(seed=index), checkpoint_path(tmp_path, index))
        newest = checkpoint_path(tmp_path, 3)
        write_snapshot(_empty_snapshot(seed=3), newest)
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])  # torn write
        path, snap, skipped = latest_valid_snapshot(tmp_path)
        assert path.name == "ckpt-00002.snap"
        assert snap.seed == 2
        assert skipped == ["ckpt-00003.snap"]

    @pytest.mark.parametrize("version", [1, 2])
    def test_skips_a_checkpoint_of_an_older_format(self, tmp_path, version):
        write_snapshot(_empty_snapshot(seed=1), checkpoint_path(tmp_path, 1))
        old = _empty_snapshot(seed=2)
        old.schema_version = version
        write_snapshot(old, checkpoint_path(tmp_path, 2))
        path, snap, skipped = latest_valid_snapshot(tmp_path)
        assert path.name == "ckpt-00001.snap"
        assert snap.seed == 1
        assert skipped == ["ckpt-00002.snap"]

    def test_empty_or_missing_directory(self, tmp_path):
        assert latest_valid_snapshot(tmp_path) == (None, None, [])
        assert latest_valid_snapshot(tmp_path / "absent") == (None, None, [])

    def test_ignores_non_checkpoint_files(self, tmp_path):
        (tmp_path / "README.txt").write_text("not a snapshot")
        write_snapshot(_empty_snapshot(seed=4), checkpoint_path(tmp_path, 4))
        path, snap, _ = latest_valid_snapshot(tmp_path)
        assert snap.seed == 4
