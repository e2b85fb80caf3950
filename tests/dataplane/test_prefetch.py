"""Prefetcher: ready-soon detection, virtual claims, end-to-end overlap."""

import pytest

from repro.core.client import ENDPOINT_HINT_KWARG
from repro.core.functions import set_current_client
from repro.data.remote_file import GlobusFile
from repro.dataplane.plane import DataPlane
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.sim.hardware import ClusterSpec, HardwareSpec
from repro.sim.network import NetworkModel
from repro.workloads.spec import TaskTypeSpec, make_task_type


@pytest.fixture(autouse=True)
def clean_client_context():
    set_current_client(None)
    yield
    set_current_client(None)


def small_cluster(name, workers=8):
    return ClusterSpec(
        name=name,
        hardware=HardwareSpec(cores_per_node=workers, cpu_freq_ghz=2.5, ram_gb=64,
                              speed_factor=1.0),
        num_nodes=1,
        workers_per_node=workers,
        queue_delay_mean_s=0.0,
        queue_delay_std_s=0.0,
    )


def build_env(names=("site_a", "site_b"), bandwidth=25.0, **config_overrides):
    setups = [
        EndpointSetup(name=name, cluster=small_cluster(name), initial_workers=8,
                      auto_scale=False, duration_jitter=0.0, execution_overhead_s=0.0)
        for name in names
    ]
    network = NetworkModel.uniform(names, bandwidth_mbps=bandwidth, jitter=0.0, seed=0)
    latency = ServiceLatencyModel(
        submit_latency_s=0.001, dispatch_latency_s=0.01, result_poll_latency_s=0.01,
        endpoint_overhead_s=0.0, status_refresh_interval_s=60.0,
    )
    env = build_simulation(setups, network=network, latency=latency, seed=0)
    config = env.make_config("DHA", profiler_update_interval_s=3600.0, **config_overrides)
    client = env.make_client(config)
    return env, client


PRODUCE = TaskTypeSpec(name="pf_produce", duration_s=0.2, output_mb=60.0)
GATE = TaskTypeSpec(name="pf_gate", duration_s=6.0, output_mb=0.0)
CONSUME = TaskTypeSpec(name="pf_consume", duration_s=0.2, output_mb=0.0)


def submit_gated_pipeline(client, src, dst, units=4):
    """Producers on ``src``; consumers pinned to ``dst`` behind a slow gate."""
    produce = make_task_type(PRODUCE)
    gate_fn = make_task_type(GATE)
    consume = make_task_type(CONSUME)
    with client:
        gate = gate_fn()
        for _ in range(units):
            out = produce(**{ENDPOINT_HINT_KWARG: src})
            consume(out, gate, **{ENDPOINT_HINT_KWARG: dst})


class TestEndToEndOverlap:
    def test_prefetch_hides_staging_behind_the_gate(self):
        env, client = build_env()
        env.seed_full_knowledge(client.federation)
        env.seed_execution_knowledge(client.federation, [PRODUCE, GATE, CONSUME])
        submit_gated_pipeline(client, "site_a", "site_b")
        client.run()
        plane = client.data_manager
        assert isinstance(plane, DataPlane)
        stats = plane.stats_dict()
        assert stats["prefetch_issued"] == 4
        assert stats["prefetch_useful"] == 4
        # The transfers ran while the gate executed, so demand staging found
        # the files present (or already on the wire).
        assert client.summary().failed_tasks == 0

    def test_prefetch_disabled_still_completes(self):
        env, client = build_env(enable_prefetch=False)
        submit_gated_pipeline(client, "site_a", "site_b")
        client.run()
        stats = client.data_manager.stats_dict()
        assert stats["prefetch_issued"] == 0
        assert client.summary().failed_tasks == 0
        assert client.engine.prefetcher is None

    def test_prefetch_beats_fifo_on_the_gated_pipeline(self):
        env, client = build_env()
        env.seed_full_knowledge(client.federation)
        env.seed_execution_knowledge(client.federation, [PRODUCE, GATE, CONSUME])
        submit_gated_pipeline(client, "site_a", "site_b", units=6)
        client.run()
        plane_makespan = client.summary().makespan_s

        set_current_client(None)
        env, client = build_env(enable_dataplane=False)
        env.seed_full_knowledge(client.federation)
        env.seed_execution_knowledge(client.federation, [PRODUCE, GATE, CONSUME])
        submit_gated_pipeline(client, "site_a", "site_b", units=6)
        client.run()
        fifo_makespan = client.summary().makespan_s
        assert plane_makespan < fifo_makespan


@pytest.mark.parametrize("enable_dataplane", [True, False])
def test_a_replica_less_input_fails_its_task_cleanly(enable_dataplane):
    # Under the published policy this used to raise out of client.run()
    # ("file 'orphan' has no replica to stage to 'site_a' from").
    env, client = build_env(enable_dataplane=enable_dataplane)
    consume = make_task_type(CONSUME)
    with client:
        consume(GlobusFile("orphan", size_mb=10.0, location=None),
                **{ENDPOINT_HINT_KWARG: "site_a"})
    client.run()
    assert client.graph.counts() == {"failed": 1}


class TestLifecycle:
    def test_consumed_outputs_become_expendable(self):
        env, client = build_env()
        submit_gated_pipeline(client, "site_a", "site_b", units=2)
        client.run()
        store = client.data_manager.store
        graph = client.graph
        produced = [
            f
            for task in graph
            if task.name == "pf_produce"
            for f in task.output_files
        ]
        assert produced
        # Every producer's only consumer completed: outputs are expendable.
        assert all(f.file_id in store._expendable for f in produced)

    def test_pins_released_after_completion(self):
        env, client = build_env()
        submit_gated_pipeline(client, "site_a", "site_b", units=2)
        client.run()
        store = client.data_manager.store
        replicas = [
            store.replica(f.file_id, endpoint)
            for task in client.graph
            for f in task.output_files
            for endpoint in store.endpoints()
        ]
        assert any(replicas)
        assert not any(r.pinned for r in replicas if r is not None)


class TestUnplacedBookkeeping:
    def test_unplaced_markers_cleared_on_placement_and_terminal_failure(self):
        # Regression: tasks that left the READY state without being placed
        # (terminal failure) must not stay in _unplaced_seen forever — the
        # set would grow unboundedly and permanently skip retried tasks.
        env, client = build_env()
        prefetcher = client.engine.prefetcher
        assert prefetcher is not None
        prefetcher._unplaced_seen.update({"t-placed", "t-failed"})
        prefetcher.on_task_placed("t-placed", "site_a")
        prefetcher.on_task_terminal("t-failed")
        assert prefetcher._unplaced_seen == set()


class TestVirtualClaims:
    def test_unpinned_consumers_fan_out_across_endpoints(self):
        # Without pinning, a wave of compute-heavy ready-soon siblings must
        # not all guess the data's endpoint: the virtual claims build up
        # backlog there, spreading the guesses like schedule() would — and
        # the spill-over guesses trigger prefetches off the producer site.
        heavy = TaskTypeSpec(name="pf_heavy", duration_s=5.0, output_mb=0.0)
        small_out = TaskTypeSpec(name="pf_small_produce", duration_s=0.2, output_mb=20.0)
        env, client = build_env(names=("site_a", "site_b", "site_c"))
        env.seed_full_knowledge(client.federation)
        env.seed_execution_knowledge(client.federation, [small_out, GATE, heavy])
        produce = make_task_type(small_out)
        gate_fn = make_task_type(GATE)
        consume = make_task_type(heavy)
        with client:
            gate = gate_fn()
            for _ in range(24):
                out = produce(**{ENDPOINT_HINT_KWARG: "site_a"})
                consume(out, gate)
        client.run()
        prefetcher = client.engine.prefetcher
        assert prefetcher is not None
        assert prefetcher.issued > 0
        # All virtual claims were released by real placements.
        assert prefetcher._virtual_claims == {}
        assert prefetcher.guesses_confirmed + prefetcher.guesses_missed > 0
        assert client.summary().failed_tasks == 0
