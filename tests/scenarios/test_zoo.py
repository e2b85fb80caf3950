"""The authored scenario zoo: determinism, workload-kind resolution,
and the zoo-mixed acceptance properties (10k-wide array + a failure-recovery
edge that actually fires under churn).

The repo-wide golden-digest matrix (``test_golden_digests``) parametrizes
over *every* registered preset, so the four ``zoo-*`` presets automatically
get the byte-level pin there; this module covers what that matrix doesn't.
"""

import dataclasses

import pytest

from repro.authoring.api import after, job, workflow
from repro.scenarios.presets import get_scenario, scenario_names
from repro.scenarios.spec import WorkloadSpec, run_scenario

ZOO_PRESETS = ["zoo-conditional", "zoo-convergence", "zoo-array", "zoo-mixed"]


def test_zoo_presets_are_registered():
    names = scenario_names()
    for name in ZOO_PRESETS:
        assert name in names


@pytest.mark.parametrize("name", ["zoo-conditional", "zoo-convergence"])
def test_small_zoo_presets_repeat_byte_identically(name):
    first = run_scenario(get_scenario(name))
    second = run_scenario(get_scenario(name))
    assert first.determinism_digest == second.determinism_digest
    assert first.to_json() == second.to_json()


def test_zoo_conditional_skips_the_dead_branches():
    # 8 jobs declared; only 6 materialize: the ensure-violated deep screen
    # routes execution to the rescreen branch, and the skipped branches
    # (refine_fast, publish_deep) never become engine tasks.
    result = run_scenario(get_scenario("zoo-conditional"))
    assert result.total_tasks == 6
    assert result.completed_tasks == 6
    assert result.failed_tasks == 0


def test_zoo_convergence_runs_exactly_the_converged_trips():
    # seed + three chained trips (until: trip >= 3) + summarize; the
    # diverged recovery branch is skipped.
    result = run_scenario(get_scenario("zoo-convergence"))
    assert result.total_tasks == 5
    assert result.completed_tasks == 5


def test_zoo_array_is_at_least_ten_thousand_wide():
    spec = get_scenario("zoo-array")
    assert spec.workload.task_count >= 10000
    result = run_scenario(spec)
    # split + width shards + reduce.
    assert result.total_tasks == spec.workload.task_count + 2
    assert result.completed_tasks == result.total_tasks
    assert result.failed_tasks == 0


class TestZooMixedAcceptance:
    """One full run of the flagship preset, asserted from several angles."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(get_scenario("zoo-mixed"))

    def test_shape(self):
        spec = get_scenario("zoo-mixed")
        assert spec.workflows == 2
        assert spec.workload.task_count >= 10000
        assert spec.dynamics.churn is not None

    def test_array_fan_out_dominates(self, result):
        # Two tenants, each with a >= 10k simulate array plus the conditional
        # / loop / recovery scaffolding around it.
        assert result.total_tasks >= 20000

    def test_failure_recovery_edge_fired(self, result):
        # Each tenant's poison flaky_export exhausts the §IV-G ladder -> a
        # terminal failure per tenant...
        assert result.failed_tasks >= 2
        # ...and every OTHER task completed, which is only possible if the
        # failure edge materialized export_fallback (and its publish child):
        # without the recovery branch each tenant would stop two tasks short.
        assert result.completed_tasks == result.total_tasks - 2

    def test_multi_tenant_serving_report(self, result):
        serving = result.serving
        assert serving["workflow_count"] == 2
        per_wf = serving["workflows"]
        assert len(per_wf) == 2
        # Both tenants ran the same authored workflow: same task census, and
        # each one's poison export terminally failed (the ladder visits every
        # endpoint once with the retry budget at zero).
        assert {wf["completed_tasks"] for wf in per_wf.values()} == {10009}
        assert all(wf["failed_tasks"] >= 1 for wf in per_wf.values())

    def test_repeat_is_byte_identical(self, result):
        again = run_scenario(get_scenario("zoo-mixed"))
        assert again.determinism_digest == result.determinism_digest
        assert again.to_json() == result.to_json()


def test_inline_definition_overrides_kind():
    # WorkloadSpec.definition: an unregistered, ad-hoc authored workflow
    # drives a scenario directly.
    @workflow
    def adhoc(width=8):
        @job(duration_s=0.5, output_mb=1.0)
        def head():
            pass

        @after(head)
        @job(duration_s=0.2, array=width)
        def fan():
            pass

        @after(fan)
        @job(duration_s=0.5)
        def tail():
            pass

    base = get_scenario("ci-smoke")
    spec = dataclasses.replace(
        base,
        workload=WorkloadSpec(
            kind="layered",  # ignored: definition takes precedence
            definition=adhoc,
            workflow_params={"width": 12},
        ),
    )
    result = run_scenario(spec)
    assert result.total_tasks == 14
    assert result.completed_tasks == 14
    repeat = run_scenario(spec)
    assert repeat.determinism_digest == result.determinism_digest


def test_unknown_workload_kind_is_an_error():
    base = get_scenario("ci-smoke")
    spec = dataclasses.replace(
        base,
        workload=dataclasses.replace(base.workload, kind="no-such-workload"),
    )
    with pytest.raises(ValueError, match="no-such-workload"):
        run_scenario(spec)


def test_unknown_workload_kind_has_no_task_types():
    # Profiler pre-training must refuse the kind build() refuses, not seed a
    # type of some other workload.
    with pytest.raises(ValueError, match="no-such-workload"):
        WorkloadSpec(kind="no-such-workload").task_types()
