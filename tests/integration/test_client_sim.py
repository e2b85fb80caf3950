"""End-to-end tests of the UniFaaS engine on the simulated fabric."""

import pytest

from repro.core.dag import TaskState
from repro.core.exceptions import TaskFailedError
from repro.core.functions import SimProfile, function
from repro.data.remote_file import GlobusFile

from tests.integration.conftest import build_two_site_env


@function(sim_profile=SimProfile(base_time_s=10.0, output_base_mb=5.0))
def stage_one(data=None):
    return None


@function(sim_profile=SimProfile(base_time_s=5.0, output_base_mb=2.0))
def stage_two(upstream=None):
    return None


@function(sim_profile=SimProfile(base_time_s=2.0))
def reduce_results(*parts):
    return None


def diamond_workflow(client, input_file=None):
    """root -> two parallel stages -> reduce."""
    with client:
        root = stage_one(input_file)
        left = stage_two(root)
        right = stage_two(root)
        final = reduce_results(left, right)
    return root, left, right, final


class TestBasicExecution:
    @pytest.mark.parametrize("strategy", ["CAPACITY", "LOCALITY", "DHA", "HEFT", "ROUND_ROBIN"])
    def test_diamond_completes_under_every_scheduler(self, strategy):
        env = build_two_site_env()
        client = env.make_client(env.make_config(strategy))
        futures = diamond_workflow(client)
        client.run()
        assert client.graph.is_complete()
        assert all(f.done() for f in futures)
        assert client.graph.state_count(TaskState.COMPLETED) == 4
        # Simulated time should reflect the critical path (10 + 5 + 2 = 17 s)
        # plus modest service latencies, not wall-clock noise.
        assert 17.0 <= env.kernel.clock.now < 60.0

    def test_futures_carry_output_files(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        root, left, right, final = diamond_workflow(client)
        client.run()
        produced = root.result()
        assert isinstance(produced, GlobusFile)
        assert produced.size_mb == pytest.approx(5.0)
        assert produced.locations  # placed on the endpoint that ran the task

    def test_dependency_outputs_become_inputs(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        root, left, right, final = diamond_workflow(client)
        client.run()
        left_task = client.graph.get(left.task_id)
        assert left_task.input_size_mb == pytest.approx(5.0)
        final_task = client.graph.get(final.task_id)
        assert final_task.input_size_mb == pytest.approx(4.0)

    def test_input_files_are_staged_to_execution_site(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        env.seed_full_knowledge(client.federation)
        big_input = GlobusFile("input.dat", size_mb=500.0, location="site_b")
        with client:
            fut = stage_one(big_input)
            client.run()
        task = client.graph.get(fut.task_id)
        assert big_input.available_at(task.assigned_endpoint)

    def test_makespan_and_summary_reported(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        diamond_workflow(client)
        client.run()
        summary = client.summary()
        assert summary.completed_tasks == 4
        assert summary.failed_tasks == 0
        assert summary.makespan_s > 0
        assert summary.tasks_per_endpoint

    def test_empty_workflow_is_a_noop(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        client.run()
        assert not client.graph.is_complete()

    def test_many_independent_tasks_use_both_sites(self):
        env = build_two_site_env(workers_a=4, workers_b=4)
        client = env.make_client(env.make_config("DHA"))
        with client:
            futures = [stage_one() for _ in range(32)]
            client.run()
        assert all(f.done() for f in futures)
        summary = client.summary()
        assert set(summary.tasks_per_endpoint) == {"site_a", "site_b"}


class TestSchedulerBehaviours:
    def test_dha_prefers_faster_site(self):
        env = build_two_site_env(speed_a=1.0, speed_b=2.0)
        client = env.make_client(env.make_config("DHA"))
        with client:
            for _ in range(20):
                stage_one()
            client.run()
        counts = client.summary().tasks_per_endpoint
        assert counts.get("site_b", 0) > counts.get("site_a", 0)

    def test_capacity_splits_proportionally(self):
        env = build_two_site_env(workers_a=12, workers_b=4)
        client = env.make_client(env.make_config("CAPACITY"))
        with client:
            [stage_one() for _ in range(32)]
            client.run()
        counts = client.summary().tasks_per_endpoint
        assert counts["site_a"] == pytest.approx(24, abs=2)
        assert counts["site_b"] == pytest.approx(8, abs=2)

    def test_locality_keeps_tasks_near_their_data(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("LOCALITY"))
        inputs = [GlobusFile(f"in{i}", size_mb=200.0, location="site_b") for i in range(8)]
        with client:
            for f in inputs:
                stage_one(f)
            client.run()
        counts = client.summary().tasks_per_endpoint
        assert counts.get("site_b", 0) >= 7
        assert client.data_manager.total_transferred_mb <= 200.0

    def test_delay_mechanism_limits_endpoint_queueing(self):
        # With DHA's delay mechanism the endpoint never sees more tasks than
        # it has workers; staged tasks wait in the client queue instead.
        env = build_two_site_env(workers_a=2, workers_b=2)
        client = env.make_client(env.make_config("DHA"))
        max_endpoint_backlog = 0

        original_submit = env.fabric.submit

        def tracking_submit(endpoint_name, request):
            original_submit(endpoint_name, request)
            nonlocal max_endpoint_backlog
            backlog = max(
                env.endpoint(name).queued_tasks for name in env.endpoints
            )
            max_endpoint_backlog = max(max_endpoint_backlog, backlog)

        env.fabric.submit = tracking_submit
        with client:
            [stage_one() for _ in range(16)]
            client.run()
        assert client.graph.is_complete()
        assert max_endpoint_backlog <= 4

    def test_endpoint_hint_pins_task(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        with client:
            fut = stage_one(unifaas_endpoint="site_b")
            client.run()
        task = client.graph.get(fut.task_id)
        assert task.assigned_endpoint == "site_b"


class TestFaultTolerance:
    def test_tasks_retry_and_migrate_away_from_flaky_endpoint(self):
        env = build_two_site_env(failure_rate_a=1.0, workers_a=4, workers_b=4, seed=2)
        config = env.make_config("ROUND_ROBIN", max_task_retries=1)
        client = env.make_client(config)
        with client:
            futures = [stage_one() for _ in range(6)]
            client.run()
        # site_a always fails; every task must eventually succeed on site_b.
        assert all(f.done() for f in futures)
        assert all(f.exception() is None for f in futures)
        assert client.summary().tasks_per_endpoint.get("site_b", 0) == 6
        assert client.task_monitor.success_rate("site_a") < 1.0

    def test_task_fails_when_all_endpoints_fail(self):
        env = build_two_site_env(failure_rate_a=1.0, seed=3)
        env.endpoint("site_b").failure_rate = 1.0
        config = env.make_config("ROUND_ROBIN", max_task_retries=0)
        client = env.make_client(config)
        with client:
            fut = stage_one()
            client.run()
        assert client.graph.is_complete()
        with pytest.raises(TaskFailedError):
            fut.result()


class TestDynamicCapacity:
    def test_rescheduling_moves_work_to_new_capacity(self):
        from repro.faas.endpoint import CapacityChange

        env = build_two_site_env(workers_a=2, workers_b=0)
        # site_b gains 8 workers at t=30; DHA's re-scheduling should move
        # queued work there instead of leaving it all on site_a.
        env.endpoint("site_b").set_capacity_schedule([CapacityChange(30.0, +8)])
        config = env.make_config(
            "DHA", rescheduling_interval_s=10.0, endpoint_sync_interval_s=10.0
        )
        client = env.make_client(config)
        with client:
            [stage_one() for _ in range(40)]
            client.run()
        counts = client.summary().tasks_per_endpoint
        assert counts.get("site_b", 0) > 0
        assert client.summary().rescheduled_tasks > 0

    def test_dha_without_rescheduling_ignores_new_capacity(self):
        from repro.faas.endpoint import CapacityChange

        env = build_two_site_env(workers_a=2, workers_b=0)
        env.endpoint("site_b").set_capacity_schedule([CapacityChange(30.0, +8)])
        config = env.make_config(
            "DHA",
            enable_rescheduling=False,
            rescheduling_interval_s=10.0,
            endpoint_sync_interval_s=10.0,
        )
        client = env.make_client(config)
        with client:
            [stage_one() for _ in range(40)]
            client.run()
        assert client.summary().rescheduled_tasks == 0


class TestMetricsCollection:
    def test_time_series_recorded(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        with client:
            [stage_one() for _ in range(16)]
            client.run()
        metrics = client.metrics
        assert len(metrics.utilization) > 0
        assert metrics.utilization.max() > 0
        assert set(metrics.active_workers) == {"site_a", "site_b"}
        assert metrics.scheduler_overhead_per_task_s() >= 0.0
