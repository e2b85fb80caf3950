"""Tests for the ``python -m repro`` scenario CLI."""

import json

import pytest

from repro.scenarios.cli import main


class TestListScenarios:
    def test_lists_presets(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "chaos-churn-dha" in out
        assert "ci-smoke" in out


class TestListWorkflows:
    def test_lists_every_workload_kind(self, capsys):
        assert main(["list-workflows"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        for kind in ("montage", "hot_dataset", "layered", "zoo-mixed"):
            assert kind in names


class TestRunScenario:
    def test_writes_bench_artifact(self, tmp_path, capsys):
        assert main(["run-scenario", "ci-smoke", "--out", str(tmp_path)]) == 0
        artifact = tmp_path / "BENCH_ci-smoke.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["scenario"] == "ci-smoke"
        assert payload["metrics"]["completed_tasks"] == payload["metrics"]["total_tasks"]
        assert payload["determinism_digest"]
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_overrides_land_in_artifact_name(self, tmp_path):
        assert main([
            "run-scenario", "ci-smoke", "--scheduler", "locality",
            "--dynamics", "none", "--out", str(tmp_path),
        ]) == 0
        artifact = tmp_path / "BENCH_ci-smoke-locality-none.json"
        assert artifact.exists()
        assert json.loads(artifact.read_text())["scheduler"] == "LOCALITY"

    def test_seed_override_changes_digest_under_churn(self, tmp_path):
        for seed in ("1", "2"):
            assert main([
                "run-scenario", "ci-smoke", "--dynamics", "churn",
                "--seed", seed, "--out", str(tmp_path / seed),
            ]) == 0
        a = json.loads((tmp_path / "1" / "BENCH_ci-smoke-churn.json").read_text())
        b = json.loads((tmp_path / "2" / "BENCH_ci-smoke-churn.json").read_text())
        assert a["determinism_digest"] != b["determinism_digest"]
        assert a["dynamics"]["fired"] != b["dynamics"]["fired"]

    def test_unknown_scenario_fails(self, capsys):
        assert main(["run-scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "1.5"])
    def test_scale_outside_unit_interval_is_a_clean_error(self, scale, tmp_path, capsys):
        argv = ["run-scenario", "paper-static-montage", "--scale", scale, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --scale must be in (0, 1]\n"
        assert not list(tmp_path.iterdir())

    def test_workflows_override_runs_serving_layer(self, tmp_path, capsys):
        assert main([
            "run-scenario", "ci-smoke", "--workflows", "2",
            "--arbitration", "fair_share", "--out", str(tmp_path),
        ]) == 0
        artifact = tmp_path / "BENCH_ci-smoke-2wf-fairshare.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["serving"]["workflow_count"] == 2
        assert payload["serving"]["policy"] == "fair_share"
        assert payload["metrics"]["completed_tasks"] == payload["metrics"]["total_tasks"]
        assert "serving" in capsys.readouterr().out


class TestCompare:
    def test_compare_writes_one_artifact_per_scheduler(self, tmp_path, capsys):
        assert main([
            "compare", "ci-smoke", "--schedulers", "dha,locality",
            "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "BENCH_ci-smoke-dha.json").exists()
        assert (tmp_path / "BENCH_ci-smoke-locality.json").exists()
        out = capsys.readouterr().out
        assert "SCHEDULER" in out
        assert "DHA" in out and "LOCALITY" in out

    def test_compare_across_arbitration_policies(self, tmp_path, capsys):
        assert main([
            "compare", "ci-smoke", "--workflows", "2",
            "--arbitrations", "fifo,fair_share", "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "BENCH_ci-smoke-2wf-fifo.json").exists()
        assert (tmp_path / "BENCH_ci-smoke-2wf-fairshare.json").exists()
        out = capsys.readouterr().out
        assert "ARBITRATION" in out and "JAIN" in out

    def test_compare_arbitrations_requires_multiple_workflows(self, capsys):
        assert main(["compare", "ci-smoke", "--arbitrations", "fifo"]) == 2
        assert "--workflows" in capsys.readouterr().err


class TestStreaming:
    def test_run_streaming_preset_prints_steady_state(self, tmp_path, capsys):
        assert main(["run-scenario", "stream-steady", "--out", str(tmp_path)]) == 0
        artifact = tmp_path / "BENCH_stream-steady.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        streaming = payload["streaming"]
        assert streaming["policy"] == "edf"
        assert streaming["arrivals"] == 24
        assert streaming["retired"] == streaming["admitted"]
        out = capsys.readouterr().out
        assert "streaming" in out
        assert "steady state" in out

    def test_compare_arbitrations_accepts_edf_on_streaming_preset(
        self, tmp_path, capsys
    ):
        # No --workflows needed: the streaming preset is inherently
        # multi-tenant.
        assert main([
            "compare", "stream-steady", "--arbitrations", "fifo,edf",
            "--out", str(tmp_path),
        ]) == 0
        fifo = json.loads((tmp_path / "BENCH_stream-steady-fifo.json").read_text())
        edf = json.loads((tmp_path / "BENCH_stream-steady-edf.json").read_text())
        assert fifo["streaming"]["policy"] == "fifo"
        assert edf["streaming"]["policy"] == "edf"
        out = capsys.readouterr().out
        assert "ARBITRATION" in out and "MISS %" in out
