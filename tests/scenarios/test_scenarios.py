"""End-to-end scenario tests: determinism, crash recovery, flush starvation."""

import dataclasses

import pytest

from repro.core.client import ENDPOINT_HINT_KWARG
from repro.core.functions import set_current_client
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel, TaskExecutionRequest
from repro.scenarios.dynamics import DynamicsInjector, DynamicsSpec, TimelineEvent
from repro.scenarios.presets import get_scenario, scenario_names
from repro.scenarios.spec import run_scenario
from repro.sim.hardware import ClusterSpec, HardwareSpec
from repro.sim.network import NetworkModel
from repro.workloads.spec import TaskTypeSpec, make_task_type


def small_cluster(name, workers_per_node=8, speed=1.0):
    return ClusterSpec(
        name=name,
        hardware=HardwareSpec(
            cores_per_node=workers_per_node, cpu_freq_ghz=2.5, ram_gb=64, speed_factor=speed
        ),
        num_nodes=4,
        workers_per_node=workers_per_node,
        queue_delay_mean_s=0.0,
        queue_delay_std_s=0.0,
    )


def fast_latency():
    return ServiceLatencyModel(
        submit_latency_s=0.001,
        dispatch_latency_s=0.01,
        result_poll_latency_s=0.01,
        endpoint_overhead_s=0.0,
        status_refresh_interval_s=60.0,
    )


def link_bandwidth(env):
    """What one transfer from site_a to site_b gets now, in MB/s."""
    return env.network.effective_bandwidth("site_a", "site_b", concurrency=1)


def two_site_env(*, batch_size=1, seed=0, workers=8):
    setups = [
        EndpointSetup(
            name=name,
            cluster=small_cluster(name),
            initial_workers=workers,
            auto_scale=False,
            duration_jitter=0.0,
            execution_overhead_s=0.0,
        )
        for name in ("site_a", "site_b")
    ]
    network = NetworkModel.uniform(
        ["site_a", "site_b"], bandwidth_mbps=200.0, jitter=0.0, seed=seed
    )
    return build_simulation(
        setups, network=network, latency=fast_latency(), seed=seed, batch_size=batch_size
    )


def chaos_spec(seed=7):
    """A compact chaos scenario used by the determinism tests."""
    preset = get_scenario("chaos-churn-dha")
    return preset.with_overrides(seed=seed)


class TestSeededDeterminism:
    def test_same_seed_identical_timeline_and_makespan(self):
        first = run_scenario(chaos_spec(seed=7))
        set_current_client(None)
        second = run_scenario(chaos_spec(seed=7))
        assert first.dynamics_fired == second.dynamics_fired
        assert first.makespan_s == second.makespan_s
        assert first.determinism_digest == second.determinism_digest
        assert first.to_json() == second.to_json()

    def test_different_seed_different_timeline(self):
        first = run_scenario(chaos_spec(seed=7))
        set_current_client(None)
        second = run_scenario(chaos_spec(seed=8))
        assert first.dynamics_fired != second.dynamics_fired
        assert first.determinism_digest != second.determinism_digest

    def test_result_payload_has_no_wall_clock_fields(self):
        result = run_scenario(chaos_spec(seed=7))
        payload = result.to_json()
        assert "overhead" not in payload  # wall-clock scheduler overhead excluded
        assert payload.endswith("\n")


class TestCrashRecovery:
    def test_crash_mid_execution_reassigns_via_failure_ladder(self):
        """Tasks running on a crashed endpoint land on the survivor (§IV-G)."""
        env = two_site_env()
        config = env.make_config("DHA", max_task_retries=1)
        client = env.make_client(config)
        env.seed_full_knowledge(client.federation)
        spec = TaskTypeSpec(name="steady", duration_s=20.0, output_mb=0.0)
        env.seed_execution_knowledge(client.federation, [spec])
        fn = make_task_type(spec)

        injector = DynamicsInjector(env, client.federation)
        injector.install([TimelineEvent(at_s=5.0, action="crash", endpoint="site_a")])

        with client:
            # Pin half the tasks to the doomed endpoint so the crash is
            # guaranteed to hit running work.
            futures = [fn(**{ENDPOINT_HINT_KWARG: "site_a"}) for _ in range(8)]
            futures += [fn() for _ in range(8)]
        client.run(max_wall_time_s=60.0)

        assert client.graph.is_complete()
        assert all(f.done() and f.exception() is None for f in futures)
        assert env.endpoint("site_a").crash_count == 1
        # The crash failed at least one running task, whose retry ladder
        # skipped the offline endpoint and reassigned to the survivor.
        reassigned = [
            t for t in client.graph if "site_a" in t.failed_endpoints and t.attempts > 1
        ]
        assert reassigned, "expected the crash to force ladder reassignments"
        assert all(t.assigned_endpoint == "site_b" for t in reassigned)

    def test_crash_replaces_undispatched_tasks(self):
        """Placed-but-undispatched tasks leave a crashed endpoint immediately."""
        env = two_site_env(workers=4)
        config = env.make_config("DHA", max_task_retries=1)
        client = env.make_client(config)
        env.seed_full_knowledge(client.federation)
        spec = TaskTypeSpec(name="burst", duration_s=10.0, output_mb=0.0)
        env.seed_execution_knowledge(client.federation, [spec])
        fn = make_task_type(spec)

        injector = DynamicsInjector(env, client.federation)
        injector.install([TimelineEvent(at_s=2.0, action="crash", endpoint="site_a")])

        with client:
            futures = [fn() for _ in range(40)]  # oversubscribe both sites
        client.run(max_wall_time_s=60.0)

        assert all(f.done() and f.exception() is None for f in futures)
        # Everything completed despite losing half the pool mid-run.
        assert client.metrics.completed_count == 40

    def test_crash_then_rejoin_restores_capacity(self):
        env = two_site_env()
        config = env.make_config("DHA")
        client = env.make_client(config)
        env.seed_full_knowledge(client.federation)
        spec = TaskTypeSpec(name="wave", duration_s=8.0, output_mb=0.0)
        env.seed_execution_knowledge(client.federation, [spec])
        fn = make_task_type(spec)

        injector = DynamicsInjector(env, client.federation)
        injector.install([
            TimelineEvent(at_s=4.0, action="crash", endpoint="site_a"),
            TimelineEvent(at_s=20.0, action="rejoin", endpoint="site_a", value=8.0),
        ])

        with client:
            futures = [fn() for _ in range(60)]
        client.run(max_wall_time_s=60.0)

        assert all(f.done() and f.exception() is None for f in futures)
        site_a = env.endpoint("site_a")
        assert site_a.online
        assert site_a.active_workers >= 1
        # The rejoined endpoint took new work after coming back.
        assert site_a.completed_count > 0


class TestFlushStarvation:
    def test_crash_does_not_strand_queued_batched_submissions(self):
        """A crash between queueing and flushing must not deadlock the fabric.

        With a large batch size the FaaS client holds requests client-side
        until ``flush()``; if the target endpoint crashes first, the stranded
        batch must still be delivered (and fail fast) rather than starving —
        ``pending_work()`` would otherwise stay true forever.
        """
        env = two_site_env(batch_size=64)
        fabric = env.fabric
        for i in range(5):
            fabric.submit(
                "site_a",
                TaskExecutionRequest(
                    task_id=f"t{i}", function_name="w", sim_duration_s=5.0
                ),
            )
        assert env.service.submitted_count == 0  # all five held client-side
        env.endpoint("site_a").crash()

        # The engine's pump flushes every round; emulate it, then drain.
        fabric.flush()
        records = []
        for _ in range(1000):
            records.extend(fabric.process())
            if not fabric.pending_work():
                break
        assert len(records) == 5
        assert all(not r.success for r in records)
        assert all(r.error == "endpoint offline" for r in records)
        assert not fabric.pending_work(), "stranded submissions starved the fabric"

    def test_engine_run_survives_crash_with_batched_submissions(self):
        """End-to-end: batch_size > task count, target crashes mid-flight."""
        env = two_site_env(batch_size=64)
        config = env.make_config("DHA", max_task_retries=1)
        client = env.make_client(config)
        env.seed_full_knowledge(client.federation)
        spec = TaskTypeSpec(name="batched", duration_s=6.0, output_mb=0.0)
        env.seed_execution_knowledge(client.federation, [spec])
        fn = make_task_type(spec)

        injector = DynamicsInjector(env, client.federation)
        injector.install([TimelineEvent(at_s=3.0, action="crash", endpoint="site_a")])

        with client:
            futures = [fn() for _ in range(24)]
        client.run(max_wall_time_s=60.0)
        assert all(f.done() and f.exception() is None for f in futures)


class TestScenarioRegistry:
    def test_registry_has_enough_presets(self):
        assert len(scenario_names()) >= 8

    def test_every_preset_is_well_formed(self):
        for name in scenario_names():
            preset = get_scenario(name)
            assert preset.name == name
            assert preset.description
            assert preset.topology
            for endpoint in preset.topology:
                endpoint.to_setup()  # validates the cluster reference

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_ci_smoke_runs_fast_and_clean(self):
        result = run_scenario(get_scenario("ci-smoke"))
        assert result.completed_tasks == result.total_tasks
        assert result.failed_tasks == 0

    def test_scheduler_override(self):
        spec = get_scenario("ci-smoke").with_overrides(scheduler="heft")
        assert spec.scheduler == "HEFT"
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scenario("ci-smoke").with_overrides(scheduler="fifo")


class TestNetworkAndStalenessDynamics:
    def test_bandwidth_scale_slows_estimates(self):
        net = NetworkModel.uniform(["a", "b"], bandwidth_mbps=100.0, jitter=0.0)
        nominal_bw = net.effective_bandwidth("a", "b", concurrency=1)
        nominal_s = net.estimate("a", "b", 100.0).duration_s
        net.set_bandwidth_scale(0.1)
        assert net.effective_bandwidth("a", "b", concurrency=1) == pytest.approx(nominal_bw / 10)
        assert net.estimate("a", "b", 100.0).duration_s > nominal_s
        net.set_bandwidth_scale(1.0)
        assert net.estimate("a", "b", 100.0).duration_s == pytest.approx(nominal_s)
        with pytest.raises(ValueError):
            net.set_bandwidth_scale(0.0)

    def test_brownout_window_degrades_then_restores(self):
        env = two_site_env()
        config = env.make_config("DHA")
        client = env.make_client(config)
        injector = DynamicsInjector(env, client.federation)
        injector.install([
            TimelineEvent(at_s=1.0, action="net_degrade", value=0.25, duration_s=4.0),
        ])
        nominal = link_bandwidth(env)
        spec = TaskTypeSpec(name="tock", duration_s=10.0, output_mb=0.0)
        fn = make_task_type(spec)
        with client:
            futures = [fn() for _ in range(4)]
        client.run(max_wall_time_s=30.0)
        assert all(f.done() for f in futures)
        # Window opened and closed: bandwidth is back to nominal.
        assert link_bandwidth(env) == pytest.approx(nominal)
        assert [e.as_dict()["action"] for e in injector.fired] == ["net_degrade"]

    def test_brownout_slows_staging_heavy_scenario(self):
        """The montage brownout preset must be slower than its clean twin."""
        preset = get_scenario("chaos-network-brownout")
        degraded = run_scenario(preset)
        set_current_client(None)
        clean = run_scenario(dataclasses.replace(preset, dynamics=DynamicsSpec()))
        assert degraded.staged_mb > 0
        assert degraded.makespan_s > clean.makespan_s

    def test_overlapping_brownout_windows_extend_the_degradation(self):
        env = two_site_env()
        config = env.make_config("DHA")
        client = env.make_client(config)
        injector = DynamicsInjector(env, client.federation)
        injector.install([
            # A long window with a shorter one nested inside it: neither the
            # long window's own restore nor the nested one may end the
            # degradation before the furthest declared window end (t=11).
            TimelineEvent(at_s=1.0, action="net_degrade", value=0.25, duration_s=10.0),
            TimelineEvent(at_s=3.0, action="net_degrade", value=0.25, duration_s=2.0),
        ])
        probes = {}
        nominal = link_bandwidth(env)

        def probe():
            probes[round(env.kernel.clock.now, 1)] = link_bandwidth(env) / nominal

        for t in (6.0, 12.0):
            env.kernel.schedule(t, probe, daemon=True)
        spec = TaskTypeSpec(name="window", duration_s=15.0, output_mb=0.0)
        fn = make_task_type(spec)
        with client:
            fn()
        client.run(max_wall_time_s=30.0)
        # The first window's restore (t=5) must not cut the second short.
        assert probes[6.0] == pytest.approx(0.25)
        assert probes[12.0] == pytest.approx(1.0)

    def test_no_op_dynamics_are_not_reported_as_fired(self):
        env = two_site_env()
        config = env.make_config("DHA")
        client = env.make_client(config)
        injector = DynamicsInjector(env, client.federation)
        injector.install([
            TimelineEvent(at_s=1.0, action="crash", endpoint="site_a"),
            # Churn on the crashed endpoint and a second crash are no-ops.
            TimelineEvent(at_s=2.0, action="churn", endpoint="site_a", value=-4.0),
            TimelineEvent(at_s=3.0, action="crash", endpoint="site_a"),
            TimelineEvent(at_s=4.0, action="rejoin", endpoint="site_a", value=4.0),
        ])
        spec = TaskTypeSpec(name="noop", duration_s=10.0, output_mb=0.0)
        fn = make_task_type(spec)
        with client:
            futures = [fn() for _ in range(4)]
        client.run(max_wall_time_s=30.0)
        assert all(f.done() for f in futures)
        assert [e.as_dict()["action"] for e in injector.fired] == ["crash", "rejoin"]

    def test_staleness_spike_fires_and_restores(self):
        env = two_site_env()
        config = env.make_config("DHA")
        client = env.make_client(config)
        injector = DynamicsInjector(env, client.federation)
        injector.install([
            TimelineEvent(at_s=1.0, action="staleness", value=500.0, duration_s=5.0),
        ])
        spec = TaskTypeSpec(name="tick", duration_s=10.0, output_mb=0.0)
        fn = make_task_type(spec)
        with client:
            futures = [fn() for _ in range(4)]
        client.run(max_wall_time_s=30.0)
        assert all(f.done() for f in futures)
        # The spike raised the refresh interval, the restore brought it back.
        assert env.service.latency.status_refresh_interval_s == pytest.approx(60.0)
        assert [e.as_dict()["action"] for e in injector.fired] == ["staleness"]
