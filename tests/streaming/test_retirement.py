"""Regression tests: retiring a tenant really releases shared-substrate state.

Open-loop serving lives or dies on this — a leak of one callback, ticket or
task row per tenant turns a 10k-arrival stream into an O(all-time) run.
"""

import numpy as np
import pytest

from tests.serving.serving_env import build_env
from repro.serving import Federation, WorkflowManager
from repro.streaming import StreamingService, StreamingSpec
from repro.workloads.spec import TaskTypeSpec, make_task_type
from repro.workloads.synthetic import build_stress_workload


def chain_builder(length=4, duration=1.0, output_mb=4.0):
    spec = TaskTypeSpec(name="chain_step", duration_s=duration, output_mb=output_mb)
    fn = make_task_type(spec)

    def build(handle):
        with handle:
            prev = None
            for _ in range(length):
                prev = fn(prev) if prev is not None else fn()

    return build


def fanin_builder(width=6, duration=1.0, output_mb=8.0):
    """Parallel producers feeding one join: forces cross-endpoint transfers."""
    produce = make_task_type(
        TaskTypeSpec(name="produce", duration_s=duration, output_mb=output_mb)
    )
    join = make_task_type(
        TaskTypeSpec(name="join", duration_s=duration, output_mb=0.0)
    )

    def build(handle):
        with handle:
            join(*[produce() for _ in range(width)])

    return build


def make_manager(env, policy="edf"):
    # Streaming serving takes a manager built without the placement plan.
    config = env.make_config("DHA", enable_scaling=False, enable_placement_plan=False)
    federation = Federation(config, env.fabric, transfer_backend=env.transfer_backend)
    env.seed_full_knowledge(federation)
    return WorkflowManager(federation, arbitration=policy)


def run_stream(
    manager,
    *,
    tasks_per_wf=4,
    max_arrivals=10,
    max_active=3,
    builder=None,
    seed=0,
):
    spec = StreamingSpec(
        mean_interarrival_s=3.0,
        max_arrivals=max_arrivals,
        queue_limit=8,
        max_active=max_active,
        slo_s=600.0,
        patience_s=600.0,
        window_s=60.0,
    )
    samples = []

    def on_admit(handle):
        samples.append(
            (
                len(manager.workflows()),
                sum(len(h.engine.graph.store) for h in manager.workflows()),
            )
        )

    service = StreamingService(
        manager,
        spec,
        arrivals_rng=np.random.default_rng(seed),
        admission_rng=np.random.default_rng(seed + 1),
        builder=builder
        or (lambda h: build_stress_workload(h, tasks_per_wf, 1.0, output_mb=0.0)),
        on_admit=on_admit,
    )
    service.install()
    manager.run(max_wall_time_s=120)
    return service, samples


class TestRetirementFreesState:
    def test_live_state_is_bounded_by_active_tenants(self):
        env = build_env()
        manager = make_manager(env)
        dm = manager.federation.data_manager
        base_handlers = manager.federation.bus.handler_count()

        service, samples = run_stream(
            manager, tasks_per_wf=4, max_arrivals=12, max_active=3
        )

        assert service.admission.admitted == 12
        assert manager.retired_count == 12
        # The manager forgot every tenant: live registries drain to zero.
        assert manager.workflows() == []
        assert manager._workflows == {}
        assert manager._arrival_handles == {}
        # The control bus and the shared data manager are back at baseline —
        # no per-tenant handler leak, and no namespace keeps a staged callback.
        assert manager.federation.bus.handler_count() == base_handlers
        assert dict(dm._staged_callbacks) == {}
        assert dm._tickets_by_namespace == {}
        assert dict(dm.volume_by_namespace_mb) == {}
        # Peak live footprint sampled at every admission: never more handles
        # than active slots (+1 for the one being admitted), and never more
        # live TaskStore rows than the active set can hold.
        assert samples, "stream admitted nothing"
        max_handles = max(n for n, _ in samples)
        max_rows = max(r for _, r in samples)
        assert max_handles <= 3 + 1
        assert max_rows <= (3 + 1) * 4

    def test_retired_namespace_releases_tickets_and_volume(self):
        env = build_env()
        manager = make_manager(env)
        dm = manager.federation.data_manager
        service, _ = run_stream(
            manager,
            max_arrivals=6,
            max_active=2,
            builder=fanin_builder(width=6, output_mb=8.0),
        )
        assert manager.retired_count == 6
        assert dm._tickets_by_namespace == {}
        assert dm._tickets_by_task == {}
        assert dict(dm.volume_by_namespace_mb) == {}
        # The global transfer ledger survives retirement (it is the run's
        # aggregate metric, not per-tenant state).
        assert dm.total_transferred_mb > 0.0

    def test_summary_is_frozen_at_retirement(self):
        env = build_env()
        manager = make_manager(env)
        retired = []
        spec = StreamingSpec(
            mean_interarrival_s=3.0,
            max_arrivals=3,
            queue_limit=8,
            max_active=2,
            slo_s=600.0,
            patience_s=600.0,
        )
        service = StreamingService(
            manager,
            spec,
            arrivals_rng=np.random.default_rng(0),
            admission_rng=np.random.default_rng(1),
            builder=chain_builder(length=3, output_mb=6.0),
            on_retire=retired.append,
        )
        service.install()
        manager.run(max_wall_time_s=60)
        assert len(retired) == 3
        for handle in retired:
            assert handle.retired
            summary = handle.summary()
            assert summary.completed_tasks == 3
            assert summary.transfer_volume_gb >= 0.0
            # Frozen: asking again after the namespace is gone returns the
            # same attributed volume, not a fresh (empty) lookup.
            assert handle.summary().transfer_volume_gb == summary.transfer_volume_gb


class TestRetireValidation:
    def test_retire_refuses_unfinished_workflow(self):
        env = build_env()
        manager = make_manager(env, policy="fifo")
        handle = manager.add_workflow(
            "wf0", builder=lambda h: build_stress_workload(h, 3, 1.0, output_mb=0.0)
        )
        with pytest.raises(ValueError, match="not finished"):
            manager.retire(handle)
        manager.run(max_wall_time_s=60)
        manager.retire(handle)
        assert manager.retired_count == 1

    def test_retire_is_idempotent(self):
        env = build_env()
        manager = make_manager(env, policy="fifo")
        handle = manager.add_workflow(
            "wf0", builder=lambda h: build_stress_workload(h, 3, 1.0, output_mb=0.0)
        )
        manager.run(max_wall_time_s=60)
        manager.retire(handle)
        manager.retire(handle)
        assert manager.retired_count == 1


class TestUnboundedGrowthGuards:
    def test_no_history_path_builds_no_history_store(self):
        env = build_env()
        manager = make_manager(env)
        assert manager.federation.config.history_db_path == ""
        run_stream(manager, tasks_per_wf=4, max_arrivals=5, max_active=2)
        assert manager.retired_count == 5
        assert manager.federation.task_monitor.store is None
        assert manager.federation.task_monitor.records_seen == 5 * 4


class TestPlanScope:
    def test_streaming_refuses_a_manager_built_with_the_placement_plan(self):
        env = build_env()
        manager = WorkflowManager(
            Federation(env.make_config("DHA"), env.fabric, transfer_backend=env.transfer_backend)
        )
        assert manager.federation.plan_service is not None
        with pytest.raises(ValueError, match="without the placement plan"):
            run_stream(manager)
