"""Serving-layer teardown: shutdown, pause/resume, cancellation.

A manager discarded mid-run (orchestrator crash recovery, an aborted
``with`` block, a restore replacing it) must release its shared-kernel
footprint: pending arrival events and control-bus subscriptions.  Without
that, a successor manager double-fires dynamics handlers and activates
ghost workflows — the restore-twice regression these tests pin down.
"""

import pytest

from tests.serving.serving_env import build_env
from repro.core.dag import TaskState
from repro.engine.events import TasksDispatched
from repro.serving import WorkflowManager
from repro.workloads.spec import TaskTypeSpec, make_task_type
from repro.workloads.synthetic import build_stress_workload


def make_manager(env, policy="fair_share", **config_overrides):
    config = env.make_config("DHA", enable_scaling=False, **config_overrides)
    manager = WorkflowManager(
        config, env.fabric, transfer_backend=env.transfer_backend, arbitration=policy
    )
    env.seed_full_knowledge(manager)
    return manager


def stress_builder(count=12, duration=2.0):
    def build(handle):
        build_stress_workload(handle, count, duration, output_mb=0.0)

    return build


class TestShutdown:
    def test_unsubscribes_every_control_bus_handler(self):
        env = build_env()
        manager = make_manager(env)
        assert manager.bus.handler_count() > 0
        manager.shutdown()
        assert manager.bus.handler_count() == 0

    def test_is_idempotent(self):
        manager = make_manager(build_env())
        manager.shutdown()
        manager.shutdown()
        assert manager.bus.handler_count() == 0

    def test_cancels_pending_arrival_events(self):
        env = build_env()
        manager = make_manager(env)
        manager.add_workflow("late", arrival_s=30.0, builder=stress_builder())
        assert env.kernel.pending_events == 1
        manager.shutdown()
        assert env.kernel.pending_events == 0

    def test_replacement_manager_sees_no_stale_handlers(self):
        """The restore-twice regression: discard a manager mid-setup twice
        over, and the live replacement's footprint must be exactly one
        manager's worth — no accumulated arrivals, no ghost activations."""
        env = build_env()
        discarded = []
        for _ in range(2):
            manager = make_manager(env)
            manager.add_workflow("wf0", arrival_s=5.0, builder=stress_builder())
            manager.shutdown()
            discarded.append(manager)

        live = make_manager(env)
        handle = live.add_workflow("wf0", arrival_s=5.0, builder=stress_builder())
        assert env.kernel.pending_events == 1  # the live arrival, nothing else
        live.run(max_wall_time_s=60)
        assert handle.finished
        assert live.summary().completed_tasks == 12
        for manager in discarded:
            assert not manager.workflow("wf0").started
            assert manager.bus.handler_count() == 0


class TestPauseResume:
    def test_paused_workflow_resumes_and_completes(self):
        env = build_env()
        manager = make_manager(env)
        handle = manager.add_workflow("wf0", builder=stress_builder(count=16))

        baseline_env = build_env()
        baseline_mgr = make_manager(baseline_env)
        baseline_mgr.add_workflow("wf0", builder=stress_builder(count=16))
        baseline_mgr.run(max_wall_time_s=60)
        baseline = baseline_mgr.summary().makespan_s

        env.kernel.schedule_at(1.0, handle.pause, label="test-pause")
        env.kernel.schedule_at(baseline + 5.0, handle.resume, label="test-resume")
        manager.run(max_wall_time_s=60)
        assert handle.finished
        assert manager.summary().completed_tasks == 16
        # The pause window pushed completion past the uninterrupted run.
        assert manager.summary().makespan_s > baseline


class TestCancellation:
    def test_cancel_before_arrival_never_activates(self):
        env = build_env()
        manager = make_manager(env)
        running = manager.add_workflow("wf0", builder=stress_builder())
        doomed = manager.add_workflow("late", arrival_s=4.0, builder=stress_builder())
        doomed.cancel()
        manager.run(max_wall_time_s=60)
        assert running.finished and not doomed.started
        assert len(doomed.graph) == 0
        assert manager.summary().completed_tasks == 12

    def test_cancel_mid_run_stops_the_pump(self):
        env = build_env()
        manager = make_manager(env)
        victim = manager.add_workflow("victim", builder=stress_builder(count=40))
        other = manager.add_workflow("other", builder=stress_builder(count=12))
        env.kernel.schedule_at(3.0, victim.cancel, label="test-cancel")
        manager.run(max_wall_time_s=60)
        assert victim.cancelled and victim.finished
        assert not victim.graph.is_complete()  # work was abandoned, not run
        assert other.graph.is_complete()

    @pytest.mark.parametrize("tenants", [2, 3])
    def test_retire_waits_for_a_cancelled_tenants_tasks_on_the_fabric(self, tenants):
        """``cancel()`` lets tasks already on the fabric drain; ``retire()``
        forgets the tenant their records are routed to.  Retiring between
        the two used to take the whole federation down with the next record
        (``unknown task`` with one tenant left, ``KeyError`` with two)."""
        env = build_env()
        manager = make_manager(env)
        victim = manager.add_workflow("wf0", builder=stress_builder(count=40))
        others = [
            manager.add_workflow(f"wf{i}", builder=stress_builder(count=12))
            for i in range(1, tenants)
        ]
        refusals = []

        def cancel_and_retire():
            victim.cancel()
            in_flight = victim.graph.state_count(TaskState.DISPATCHED)
            try:
                manager.retire(victim)
            except ValueError as exc:
                refusals.append((in_flight, str(exc)))

        def on_first_dispatch(event):
            victim.bus.unsubscribe(TasksDispatched, on_first_dispatch)
            env.kernel.schedule_at(event.time + 0.5, cancel_and_retire, label="test-retire")

        victim.bus.subscribe(TasksDispatched, on_first_dispatch)
        manager.run(max_wall_time_s=60)

        # Retirement was refused, naming what was still out there ...
        [(in_flight, message)] = refusals
        assert in_flight > 0 and f"{in_flight} task(s) on the fabric" in message
        assert victim.cancelled and victim.finished and not victim.retired
        # ... the run went on and everybody else finished everything ...
        for other in others:
            assert other.graph.is_complete()
            assert other.summary().completed_tasks == 12
        # ... the victim's records came home (the monitor's outstanding
        # count is back to zero), and now it can go.
        assert victim.graph.state_count(TaskState.DISPATCHED) == 0
        assert victim.summary().completed_tasks >= in_flight
        for name in env.fabric.endpoint_names():
            assert manager.endpoint_monitor.mock(name).outstanding_tasks == 0
        manager.retire(victim)
        assert victim.retired and manager.retired_count == 1

    def test_cancel_is_idempotent_and_safe_after_finish(self):
        env = build_env()
        manager = make_manager(env)
        handle = manager.add_workflow("wf0", builder=stress_builder())
        manager.run(max_wall_time_s=60)
        assert handle.finished
        handle.cancel()  # no-op on a finished workflow
        assert handle.finished and not handle.cancelled

    def test_aborted_composition_block_cancels(self):
        env = build_env()
        manager = make_manager(env)
        spec = TaskTypeSpec(name="step", duration_s=1.0, output_mb=0.0)
        fn = make_task_type(spec)
        handle = manager.add_workflow("wf0")
        with pytest.raises(RuntimeError, match="composition failed"):
            with handle:
                fn()
                raise RuntimeError("composition failed")
        assert handle.cancelled
        running = manager.add_workflow("wf1", builder=stress_builder())
        manager.run(max_wall_time_s=60)
        assert running.finished and not handle.started
