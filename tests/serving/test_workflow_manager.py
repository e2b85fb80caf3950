"""Tests for the multi-workflow serving layer."""

import pytest

from tests.serving.serving_env import build_env
from repro.engine.events import Event, TasksDispatched
from repro.monitor.store import HistoryStore
from repro.serving import WorkflowManager, jain_index
from repro.workloads.synthetic import build_stress_workload
from repro.workloads.spec import TaskTypeSpec, make_task_type


def chain_builder(length=6, duration=2.0, output_mb=4.0):
    """A dependency chain with data: outputs feed the next task's inputs."""
    spec = TaskTypeSpec(name="chain_step", duration_s=duration, output_mb=output_mb)
    fn = make_task_type(spec)

    def build(handle):
        with handle:
            prev = None
            for _ in range(length):
                prev = fn(prev) if prev is not None else fn()

    return build


def stress_builder(count=30, duration=2.0):
    def build(handle):
        build_stress_workload(handle, count, duration, output_mb=0.0)

    return build


class EventLog:
    def __init__(self) -> None:
        self.entries = []

    def __call__(self, event: Event) -> None:
        self.entries.append((round(event.time, 9),) + event.describe())


def make_manager(env, policy="fair_share", **config_overrides):
    config = env.make_config("DHA", enable_scaling=False, **config_overrides)
    manager = WorkflowManager(
        config, env.fabric, transfer_backend=env.transfer_backend, arbitration=policy
    )
    env.seed_full_knowledge(manager)
    return manager


class TestSharedSubstrate:
    def test_task_ids_are_workflow_namespaced(self):
        env = build_env()
        manager = make_manager(env)
        a = manager.add_workflow("alpha", builder=stress_builder(5))
        b = manager.add_workflow("beta", builder=stress_builder(5))
        manager.run(max_wall_time_s=60)
        assert all(t.task_id.startswith("alpha/task-") for t in a.graph)
        assert all(t.task_id.startswith("beta/task-") for t in b.graph)
        # Per-workflow ids restart from zero: determinism does not depend on
        # any process-global counter state.
        assert sorted(t.task_id for t in a.graph)[0] == "alpha/task-00000000"

    def test_one_substrate_many_workflows(self):
        env = build_env()
        manager = make_manager(env)
        handles = [
            manager.add_workflow(f"wf{i}", builder=chain_builder()) for i in range(3)
        ]
        manager.run(max_wall_time_s=60)
        engines = [h.engine for h in handles]
        # One shared monitor / profiler / data manager; per-workflow graphs.
        assert len({id(e.endpoint_monitor) for e in engines}) == 1
        assert len({id(e.execution_profiler) for e in engines}) == 1
        assert len({id(e.data_manager) for e in engines}) == 1
        assert len({id(e.graph) for e in engines}) == 3
        summary = manager.summary()
        assert summary.completed_tasks == 18
        assert summary.failed_tasks == 0

    def test_per_tenant_byte_accounting_sums_to_total(self):
        env = build_env()
        manager = make_manager(env)
        manager.add_workflow("wf0", builder=chain_builder(output_mb=8.0))
        manager.add_workflow("wf1", builder=chain_builder(output_mb=8.0))
        manager.run(max_wall_time_s=60)
        volumes = manager.data_manager.volume_by_namespace_mb
        total = manager.data_manager.total_transferred_mb
        assert sum(volumes.values()) == pytest.approx(total)
        summary = manager.summary()
        per_wf = sum(
            s.transfer_volume_gb * 1024.0 for s in summary.workflows.values()
        )
        assert per_wf == pytest.approx(total)

    def test_file_backed_history_is_durable_when_run_returns(self, tmp_path):
        # Rows are no longer committed one by one; the run loop flushes.
        path = str(tmp_path / "history.db")
        env = build_env()
        manager = make_manager(env, history_db_path=path)
        manager.add_workflow("alpha", builder=stress_builder(5))
        manager.run(max_wall_time_s=60)
        other_connection = HistoryStore(path)
        assert other_connection.task_count() == 5
        other_connection.close()

    def test_file_backed_history_survives_a_run_that_raises(self, tmp_path):
        path = str(tmp_path / "history.db")
        env = build_env()
        manager = make_manager(env, history_db_path=path)
        manager.add_workflow("alpha", builder=chain_builder(length=6, output_mb=0.0))
        other_connection = HistoryStore(path)
        seen_mid_run = []

        def listener(record):
            # Earlier rounds' rows are already committed while the run goes on.
            seen_mid_run.append(other_connection.task_count())
            if len(seen_mid_run) == 4:
                raise RuntimeError("listener blew up")

        manager.task_monitor.add_task_listener(listener)
        with pytest.raises(RuntimeError, match="listener blew up"):
            manager.run(max_wall_time_s=60)
        assert seen_mid_run == [0, 1, 2, 3]
        assert other_connection.task_count() == 4
        other_connection.close()

    def test_empty_workflow_is_trivially_complete(self):
        env = build_env()
        manager = make_manager(env)
        manager.add_workflow("empty")
        manager.add_workflow("real", builder=stress_builder(3))
        manager.run(max_wall_time_s=60)
        assert manager.summary().completed_tasks == 3


class TestDeterminism:
    @staticmethod
    def run_once(order, policy="fair_share"):
        env = build_env()
        manager = make_manager(env, policy=policy)
        logs = {}
        specs = {
            "wf0": dict(weight=2.0, arrival_s=0.0, builder=chain_builder()),
            "wf1": dict(weight=1.0, arrival_s=4.0, builder=stress_builder(20)),
            "wf2": dict(weight=1.0, arrival_s=8.0, builder=chain_builder(length=4)),
        }
        for wid in order:
            handle = manager.add_workflow(wid, **specs[wid])
            log = EventLog()
            handle.bus.subscribe_all(log)
            logs[wid] = log
        manager.run(max_wall_time_s=120)
        return {wid: tuple(log.entries) for wid, log in logs.items()}

    @pytest.mark.parametrize("policy", ["fifo", "fair_share", "priority"])
    def test_digests_identical_regardless_of_registration_order(self, policy):
        forward = self.run_once(["wf0", "wf1", "wf2"], policy)
        shuffled = self.run_once(["wf2", "wf0", "wf1"], policy)
        assert forward == shuffled
        assert all(entries for entries in forward.values())

    def test_repeat_runs_are_identical(self):
        first = self.run_once(["wf0", "wf1", "wf2"])
        second = self.run_once(["wf0", "wf1", "wf2"])
        assert first == second


class TestArbitrationBehaviour:
    @staticmethod
    def run_policy(policy, workflows=4, tasks=60):
        env = build_env(endpoints=(("a", "qiming", 8),))
        manager = make_manager(env, policy=policy)
        for i in range(workflows):
            manager.add_workflow(
                f"wf{i}", priority=workflows - i, builder=stress_builder(tasks)
            )
        manager.run(max_wall_time_s=120)
        return manager.summary()

    def test_fair_share_evens_out_waits(self):
        fifo = self.run_policy("fifo")
        fair = self.run_policy("fair_share")
        fifo_waits = [s.wait_time_mean_s for s in fifo.workflows.values()]
        fair_waits = [s.wait_time_mean_s for s in fair.workflows.values()]
        # FIFO drains arrival order: the last tenant waits far longer than
        # the first.  Fair share compresses the spread.
        assert max(fifo_waits) > 2.0 * min(fifo_waits)
        assert jain_index(fair_waits) > jain_index(fifo_waits)
        assert max(fair_waits) < max(fifo_waits)
        # Same work either way.
        assert fifo.completed_tasks == fair.completed_tasks
        assert fifo.total_transferred_mb == fair.total_transferred_mb

    def test_priority_orders_tenants(self):
        result = self.run_policy("priority")
        waits = [s.wait_time_mean_s for s in result.workflows.values()]
        # wf0 has the highest priority, so waits ascend with tenant index.
        assert waits == sorted(waits)
        assert waits[0] < waits[-1]

    def test_weights_shape_fair_share(self):
        env = build_env(endpoints=(("a", "qiming", 8),))
        manager = make_manager(env, policy="fair_share")
        manager.add_workflow("heavy", weight=4.0, builder=stress_builder(60))
        manager.add_workflow("light", weight=1.0, builder=stress_builder(60))
        manager.run(max_wall_time_s=120)
        summary = manager.summary()
        assert (
            summary.workflows["heavy"].wait_time_mean_s
            < summary.workflows["light"].wait_time_mean_s
        )


class TestStaggeredArrivals:
    def test_arrivals_follow_the_kernel_timeline(self):
        env = build_env()
        manager = make_manager(env)
        manager.add_workflow("early", builder=stress_builder(10))
        late = manager.add_workflow("late", arrival_s=30.0, builder=stress_builder(10))
        dispatch_times = []
        late.bus.subscribe(TasksDispatched, lambda e: dispatch_times.append(e.time))
        manager.run(max_wall_time_s=60)
        # The late workflow's DAG is built at its arrival, not before.
        assert min(t.timestamps.created for t in late.graph) >= 30.0
        assert dispatch_times and min(dispatch_times) >= 30.0
        assert manager.summary().completed_tasks == 20

    def test_arrival_beyond_active_work_still_fires(self):
        # The first workflow drains long before the second arrives: the
        # kernel-scheduled arrival must keep the simulation alive.
        env = build_env()
        manager = make_manager(env)
        manager.add_workflow("early", builder=stress_builder(4, duration=1.0))
        manager.add_workflow("late", arrival_s=200.0, builder=stress_builder(4))
        manager.run(max_wall_time_s=60)
        assert manager.summary().completed_tasks == 8


class TestServingSummary:
    def test_jain_index(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_summary_payload(self):
        env = build_env()
        manager = make_manager(env)
        manager.add_workflow("wf0", owner="alice", builder=stress_builder(5))
        manager.add_workflow("wf1", owner="bob", builder=stress_builder(5))
        manager.run(max_wall_time_s=60)
        payload = manager.summary().as_dict()
        assert payload["policy"] == "fair_share"
        assert set(payload["workflows"]) == {"wf0", "wf1"}
        assert payload["workflows"]["wf0"]["tenant"] == "alice"
        assert payload["completed_tasks"] == 10


class TestValidation:
    def test_rejects_bad_workflow_parameters(self):
        env = build_env()
        manager = make_manager(env)
        manager.add_workflow("wf0")
        with pytest.raises(ValueError):
            manager.add_workflow("wf0")
        with pytest.raises(ValueError):
            manager.add_workflow("a/b")
        with pytest.raises(ValueError):
            manager.add_workflow("wf1", weight=0.0)
        with pytest.raises(ValueError):
            manager.add_workflow("wf2", arrival_s=-1.0)
