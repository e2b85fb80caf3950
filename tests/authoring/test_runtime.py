"""WorkflowRun semantics on a live engine: edges, conditions, loops, arrays."""

import pytest

from repro.authoring.api import after, ensure, job, require, workflow
from repro.authoring.runtime import ARRAY_BATCH, JobOutcome, WorkflowRun
from repro.core.exceptions import WorkflowError

from tests.integration.conftest import build_two_site_env


def run_workflow(definition, *, params=None):
    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    run = WorkflowRun(definition, client, params=params)
    run.start()
    client.run(max_wall_time_s=120.0)
    return run


def test_failure_edge_fires_after_ladder_exhaustion():
    @workflow
    def wf():
        # Poison pill: fails on every endpoint with the retry budget at zero,
        # so the §IV-G ladder terminates with a terminal TaskFailed.
        @job(duration_s=0.5, retries=0, failure_rate=1.0)
        def flaky():
            pass

        @after(flaky)
        @job(duration_s=0.5)
        def happy_path():
            pass

        @after(flaky, status="failure")
        @job(duration_s=0.5)
        def recovery():
            pass

        @after(recovery)
        @job(duration_s=0.5)
        def publish():
            pass

    run = run_workflow(wf)
    assert run.outcomes() == {
        "flaky": JobOutcome.FAILURE,
        "happy_path": JobOutcome.SKIPPED,
        "recovery": JobOutcome.SUCCESS,
        "publish": JobOutcome.SUCCESS,
    }
    # The skipped branch never produced an engine task.
    assert run.materialized("happy_path") == 0
    assert run.materialized("recovery") == 1


def test_any_edge_fires_on_either_terminal_outcome():
    @workflow
    def wf():
        @job(duration_s=0.5, retries=0, failure_rate=1.0)
        def doomed():
            pass

        @job(duration_s=0.5)
        def fine():
            pass

        @after(doomed, status="any")
        @job(duration_s=0.5)
        def after_doomed():
            pass

        @after(fine, status="any")
        @job(duration_s=0.5)
        def after_fine():
            pass

    run = run_workflow(wf)
    assert run.outcome("after_doomed") == JobOutcome.SUCCESS
    assert run.outcome("after_fine") == JobOutcome.SUCCESS


def test_ensure_violation_demotes_to_failure_branch():
    @workflow
    def wf():
        @job(duration_s=0.5)
        def probe():
            pass

        # The task runs and completes, but the postcondition rejects it.
        @ensure(lambda i: False)
        @after(probe)
        @job(duration_s=0.5)
        def screen():
            pass

        @after(screen)
        @job(duration_s=0.5)
        def accept():
            pass

        @after(screen, status="failure")
        @job(duration_s=0.5)
        def reject():
            pass

    run = run_workflow(wf)
    assert run.outcome("screen") == JobOutcome.FAILURE
    assert run.materialized("screen") == 1  # it DID run
    assert run.outcome("accept") == JobOutcome.SKIPPED
    assert run.outcome("reject") == JobOutcome.SUCCESS


def test_require_violation_fails_without_running():
    @workflow
    def wf():
        @require(lambda i: False)
        @job(duration_s=0.5)
        def gated():
            pass

        @after(gated, status="failure")
        @job(duration_s=0.5)
        def fallback():
            pass

    run = run_workflow(wf)
    assert run.outcome("gated") == JobOutcome.FAILURE
    assert run.materialized("gated") == 0  # never became an engine task
    assert run.outcome("fallback") == JobOutcome.SUCCESS


def test_loop_converges_via_until():
    @workflow
    def wf():
        @job(duration_s=0.5, max_trips=6, until=lambda trip: trip >= 3)
        def refine():
            pass

        @after(refine)
        @job(duration_s=0.5)
        def summarize():
            pass

    run = run_workflow(wf)
    assert run.outcome("refine") == JobOutcome.SUCCESS
    assert run.materialized("refine") == 3  # trips 1..3, chained
    assert run.outcome("summarize") == JobOutcome.SUCCESS


def test_loop_exhaustion_is_a_failure():
    @workflow
    def wf():
        @job(duration_s=0.5, max_trips=2, until=lambda trip: False)
        def never_converges():
            pass

        @after(never_converges, status="failure")
        @job(duration_s=0.5)
        def diverged():
            pass

    run = run_workflow(wf)
    assert run.outcome("never_converges") == JobOutcome.FAILURE
    assert run.materialized("never_converges") == 2
    assert run.outcome("diverged") == JobOutcome.SUCCESS


def test_array_fans_out_and_reduces():
    @workflow
    def wf(width=24):
        @job(duration_s=0.5, output_mb=1.0)
        def split():
            pass

        @after(split)
        @job(duration_s=0.1, array=width)
        def shard():
            pass

        @after(shard)
        @job(duration_s=0.5)
        def reduce_all():
            pass

    run = run_workflow(wf)
    assert run.outcome("shard") == JobOutcome.SUCCESS
    assert run.materialized("shard") == 24
    assert run.outcome("reduce_all") == JobOutcome.SUCCESS


def test_array_window_is_bounded_by_the_batch_size():
    width = ARRAY_BATCH + 100

    @workflow
    def wf():
        @job(duration_s=0.01, array=width)
        def wide():
            pass

    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    run = WorkflowRun(wf, client)
    run.start()
    # Before anything completes, only the first window is materialized.
    assert run.materialized("wide") == ARRAY_BATCH
    client.run(max_wall_time_s=300.0)
    assert run.materialized("wide") == width
    assert run.outcome("wide") == JobOutcome.SUCCESS


def test_array_element_requires_skip_individual_elements():
    @workflow
    def wf():
        # Odd indices are rejected before materialization; the array still
        # finishes, but its outcome is FAILURE (some elements failed).
        @require(lambda i: i % 2 == 0)
        @job(duration_s=0.1, array=10)
        def picky():
            pass

        @after(picky, status="failure")
        @job(duration_s=0.5)
        def triage():
            pass

    run = run_workflow(wf)
    assert run.outcome("picky") == JobOutcome.FAILURE
    assert run.materialized("picky") == 5
    assert run.outcome("triage") == JobOutcome.SUCCESS


def test_double_start_is_an_error():
    @workflow
    def wf():
        @job
        def a():
            pass

    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    run = WorkflowRun(wf, client).start()
    with pytest.raises(WorkflowError, match="already started"):
        run.start()


def test_inspection_rejects_unknown_jobs():
    @workflow
    def wf():
        @job
        def a():
            pass

    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    run = WorkflowRun(wf, client)
    with pytest.raises(WorkflowError, match="unknown job"):
        run.outcome("missing")
    with pytest.raises(WorkflowError, match="unknown job"):
        run.materialized("missing")
