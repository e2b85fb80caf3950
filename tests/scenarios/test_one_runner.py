"""One scenario runner: a closed cohort and an open-loop stream are two ways
tenants arrive at the same federation, built, recorded and totalled by the
same ledger."""

import dataclasses
import gc
import weakref

import pytest

from repro.scenarios.cli import main
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import WorkloadSpec, run_scenario
from repro.serving import WorkflowManager


def _spy_retire(monkeypatch, on_retire):
    original = WorkflowManager.retire

    def retire(self, handle):
        on_retire(handle)
        original(self, handle)

    monkeypatch.setattr(WorkflowManager, "retire", retire)


class TestStreamTotals:
    def test_totals_are_the_retired_tenants_summaries(self, monkeypatch):
        retired = []
        _spy_retire(monkeypatch, retired.append)
        result = run_scenario(get_scenario("stream-overload"), max_wall_time_s=240)

        assert len(retired) == result.streaming["retired"] == result.streaming["admitted"]
        summaries = [handle.summary() for handle in retired]
        assert result.completed_tasks == sum(s.completed_tasks for s in summaries)
        assert result.total_tasks == sum(len(handle.graph) for handle in retired)
        assert result.failed_tasks == sum(s.failed_tasks for s in summaries)
        per_endpoint = {}
        for summary in summaries:
            for endpoint, count in summary.tasks_per_endpoint.items():
                per_endpoint[endpoint] = per_endpoint.get(endpoint, 0) + count
        assert result.tasks_per_endpoint == per_endpoint

    def test_retired_authored_tenants_are_released_mid_stream(self, monkeypatch):
        # An authored tenant's WorkloadInfo holds its WorkflowRun, and the
        # run holds the tenant's handle and engine: a ledger that kept the
        # infos to the end kept every retired engine alive.
        retired, alive = [], []

        def count_alive(handle):
            gc.collect()
            alive.append(sum(ref() is not None for ref in retired))
            retired.append(weakref.ref(handle.engine))

        _spy_retire(monkeypatch, count_alive)
        spec = dataclasses.replace(
            get_scenario("stream-steady"),
            workload=WorkloadSpec(
                kind="layered", task_count=8, layer_width=4, duration_s=2.0,
                output_mb=1.0,
            ),
        )
        result = run_scenario(spec, max_wall_time_s=120)
        assert result.completed_tasks == result.total_tasks == 24 * 8
        assert len(alive) == 24
        assert max(alive) == 0


class TestArrivalsAreOneChoice:
    @pytest.mark.parametrize(
        "cohort",
        [{"workflows": 2}, {"workflow_stagger_s": 5.0}, {"tenant_weights": (2.0,)}],
    )
    def test_a_stream_rejects_cohort_fields(self, cohort):
        with pytest.raises(ValueError, match="arrive from the stream"):
            dataclasses.replace(get_scenario("stream-steady"), **cohort)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-scenario", "stream-steady", "--workflows", "2"],
            ["run-scenario", "stream-steady", "--stagger", "5"],
            ["compare", "stream-steady", "--arbitrations", "fifo,edf", "--workflows", "2"],
        ],
    )
    def test_cohort_overrides_on_a_stream_are_refused(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "arrive from the stream" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
