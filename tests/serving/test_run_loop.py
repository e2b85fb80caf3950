"""The one run loop: stall ladder, idle-round skip, repeated runs.

Every case runs on both shapes of a federation — the single-workflow client
(one unarbitrated tenant, namespace "") and four fair-share tenants — since
both are the same ``WorkflowManager.run``.
"""

import json

import pytest

from repro.core.exceptions import SchedulingError
from repro.core.functions import SimProfile, function
from repro.elastic.scaling import NoScalingStrategy
from repro.engine.core import ExecutionEngine
from repro.scenarios.dynamics import DynamicsInjector, TimelineEvent
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import run_scenario
from repro.serving import WorkflowManager

from tests.golden.regenerate import GOLDEN_PATH, artifact_sha256
from tests.integration.conftest import build_two_site_env

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@function(sim_profile=SimProfile(base_time_s=1.0, output_base_mb=1.0))
def loop_work(data=None):
    return None


def chains(handle, count=6):
    with handle:
        for _ in range(count):
            loop_work(loop_work(loop_work()))


def build_federation(tenants, env, config, compose=chains):
    """(manager, handles): the client's one-tenant manager, or N tenants."""
    if tenants == 1:
        client = env.make_client(config)
        handle = client.manager.workflow("")
        compose(handle)
        return client.manager, [handle]
    manager = WorkflowManager(
        config, env.fabric, transfer_backend=env.transfer_backend, arbitration="fair_share"
    )
    handles = [
        manager.add_workflow(f"wf{i}", arrival_s=float(i), builder=compose)
        for i in range(tenants)
    ]
    return manager, handles


TENANTS = pytest.mark.parametrize("tenants", [1, 4])


class TestStallLadder:
    @TENANTS
    def test_hard_ceiling_raises_with_state_counts(self, tenants):
        # Staged tasks whose dispatch gate never opens, with the delay
        # mechanism (and so the forced dispatch) off: the hard ceiling turns
        # an endless spin into a diagnosable SchedulingError.
        env = build_two_site_env()
        config = env.make_config("DHA", enable_delay_mechanism=False)
        manager, handles = build_federation(
            tenants, env, config, compose=lambda h: chains(h, count=1)
        )
        manager.stall_hard_rounds = 50
        for handle in handles:
            handle.scheduler.should_dispatch = lambda task: False
        with pytest.raises(SchedulingError, match="no progress.*staged"):
            manager.run()

    @TENANTS
    def test_raises_when_nothing_can_be_placed(self, tenants):
        env = build_two_site_env(workers_a=0, workers_b=0)
        config = env.make_config("ROUND_ROBIN")
        manager, handles = build_federation(
            tenants, env, config, compose=lambda h: chains(h, count=1)
        )
        manager.stall_hard_rounds = 50
        for handle in handles:
            handle.scheduler.schedule = lambda ready: []
        with pytest.raises(SchedulingError, match="stalled.*ready"):
            manager.run()

    @TENANTS
    def test_forced_dispatch_breaks_a_delay_mechanism_deadlock(self, tenants):
        # The delay mechanism holds every staged task back (the gate claims
        # no endpoint can start it); past the soft threshold the loop forces
        # the queue heads out, one workflow per stalled stretch.
        env = build_two_site_env()
        config = env.make_config("DHA")
        manager, handles = build_federation(
            tenants, env, config, compose=lambda h: chains(h, count=1)
        )
        for handle in handles:
            handle.scheduler.should_dispatch = lambda task: False
        manager.run(max_wall_time_s=60)
        assert all(h.finished and h.graph.is_complete() for h in handles)


class TestIdleRoundSkip:
    """``run`` skips the pump after kernel events no engine can observe."""

    @staticmethod
    def _run_chains(tenants, monkeypatch, always_pump=False, mocking=True):
        env = build_two_site_env(workers_a=2, workers_b=2)
        manager, handles = build_federation(tenants, env, env.make_config("DHA"))
        manager.endpoint_monitor.mocking_enabled = mocking
        if always_pump:
            monkeypatch.setattr(ExecutionEngine, "pump_due", lambda self: True)
        log, rounds, pumps = [], [0], [0]
        for handle in handles:
            handle.bus.subscribe_all(
                lambda e, wid=handle.workflow_id: log.append(
                    (wid, type(e).__name__, e.time, getattr(e, "endpoint", None))
                )
            )
        process, pump = manager.fabric.process, manager._pump

        def counted_process(*args, **kwargs):
            rounds[0] += 1
            return process(*args, **kwargs)

        def counted_pump(active):
            pumps[0] += 1
            return pump(active)

        manager.fabric.process, manager._pump = counted_process, counted_pump
        manager.run()
        monkeypatch.undo()
        return log, rounds[0], pumps[0]

    @TENANTS
    def test_skipped_rounds_change_no_event(self, tenants, monkeypatch):
        log, rounds, pumps = self._run_chains(tenants, monkeypatch)
        reference, reference_rounds, reference_pumps = self._run_chains(
            tenants, monkeypatch, always_pump=True
        )
        assert log == reference and rounds == reference_rounds
        assert reference_pumps == reference_rounds
        assert pumps < rounds

    @TENANTS
    def test_never_skips_with_mocking_disabled(self, tenants, monkeypatch):
        # Endpoint state then moves without any bus event.
        _, rounds, pumps = self._run_chains(tenants, monkeypatch, mocking=False)
        assert pumps == rounds

    @pytest.mark.parametrize(
        "name", ["ci-smoke", "multi-tenant", "tenant-storm", "stream-steady"]
    )
    def test_preset_artifact_is_the_same_with_the_skip_forced_off(self, name, monkeypatch):
        monkeypatch.setattr(ExecutionEngine, "pump_due", lambda self: True)
        result = run_scenario(get_scenario(name))
        assert artifact_sha256(result) == GOLDEN[name]


class TestPromptScaling:
    def test_one_scaling_pass_per_dynamics_event_however_many_tenants(self):
        # Every tenant engine forwards the same churn event; the federation's
        # scaler must react to it once, not once per tenant.
        class CountingStrategy(NoScalingStrategy):
            calls = 0

            def decide(self, pending_tasks, endpoints):
                CountingStrategy.calls += 1
                return super().decide(pending_tasks, endpoints)

        env = build_two_site_env()
        manager = WorkflowManager(
            env.make_config("DHA"),
            env.fabric,
            transfer_backend=env.transfer_backend,
            scaling_strategy=CountingStrategy(),
            scaling_check_interval_s=1e9,  # no cadence pass: only the reaction counts
        )
        handles = [manager.add_workflow(f"wf{i}", builder=chains) for i in range(3)]
        DynamicsInjector(env, manager).install(
            [TimelineEvent(at_s=1.5, action="churn", endpoint="site_a", value=-2.0)]
        )
        manager.run(max_wall_time_s=60)
        assert all(h.graph.is_complete() for h in handles)
        assert CountingStrategy.calls == 1


class TestRepeatedRun:
    def test_client_runs_again_after_further_composition(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        with client:
            first = loop_work()
            client.run()
            assert first.done() and client.graph.is_complete()
            second = loop_work(first)
            assert not client.graph.is_complete()
            client.run()
        assert second.done()
        assert client.task_states()["completed"] == 2
        assert client.summary().completed_tasks == 2

    def test_run_with_nothing_composed_returns(self):
        env = build_two_site_env()
        client = env.make_client(env.make_config("DHA"))
        client.run()
        assert len(client.graph) == 0
