"""The run loop pumps what moved: visit counts, incremental aggregates,
the arbitration fingerprint.

The brute-force rebuild the loop used to do every pump — ask every active
tenant for its demand, its staged cores, its claims — lives here, as the
oracle the incremental aggregates are compared against at every pump round.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dag import TaskState
from repro.core.exceptions import SchedulingError
from repro.engine.core import ExecutionEngine
from repro.engine.dispatch import DispatchCoordinator
from repro.engine.events import CapacityChanged
from repro.engine.periodic import PeriodicCoordinator
from repro.engine.placement import PlacementCoordinator
from repro.scenarios.dynamics import DynamicsInjector, TimelineEvent
from repro.scenarios.presets import SCENARIOS
from repro.scenarios.spec import EndpointSpec, ScenarioSpec, WorkloadSpec, run_scenario
from repro.serving.arbitration import FairShareArbitration, TenantShare
from repro.serving.manager import WorkflowManager
from repro.streaming.spec import StreamingSpec

from tests.serving.serving_env import build_env
from tests.serving.test_workflow_manager import chain_builder, make_manager, stress_builder

_UNDISPATCHED = (TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED)
_TERMINAL = (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED)


# ------------------------------------------------------------ (a) visit counts
def test_visits_per_task_on_a_scripted_stream(monkeypatch):
    """A pinned count, not a wall-clock: with up to six tenants active, each
    per-tenant entry point is still called at most twice per task."""
    calls = Counter()

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(PeriodicCoordinator, "check")
    counted(PlacementCoordinator, "schedule_ready")
    counted(DispatchCoordinator, "dispatch_staged")

    spec = ScenarioSpec(
        name="due-gating-stream",
        description="20 scripted arrivals of 8-task tenants, EDF, 6 active at once",
        workload=WorkloadSpec(kind="stress", task_count=8, duration_s=3.0, output_mb=0.0),
        topology=(
            EndpointSpec(name="site_a", cluster="qiming", workers=8, max_workers=16),
            EndpointSpec(name="site_b", cluster="lab", workers=4, max_workers=8),
        ),
        scheduler="DHA",
        arbitration="edf",
        streaming=StreamingSpec(
            max_arrivals=0,
            scripted_arrivals=tuple(2.5 * k for k in range(20)),
            queue_limit=20,
            max_active=6,
            slo_s=120.0,
            patience_s=600.0,
        ),
    )
    result = run_scenario(spec, seed=3)
    assert result.failed_tasks == 0 and result.completed_tasks == result.total_tasks == 160
    per_task = {name: count / result.total_tasks for name, count in calls.items()}
    for name in ("check", "schedule_ready", "dispatch_staged"):
        assert per_task.get(name, 0.0) <= 2.0, per_task


# ------------------------------------------------- (b) aggregates == brute force
def rebuild(manager):
    """What the ungated loop recomputed every pump, from the task objects."""
    names = manager.federation.endpoint_monitor.endpoint_names()
    active = [h for h in manager.workflows() if h.started and not h.finished and not h.paused]
    demand, staged, terminal, undispatched = {}, {}, {}, {}
    placed = Counter()
    for handle in active:
        cores = Counter()
        waiting = done = 0
        for task in handle.graph:
            if task.state in _UNDISPATCHED and task.assigned_endpoint is not None:
                waiting += 1
                placed[task.assigned_endpoint] += 1
            if task.state == TaskState.STAGED:
                cores[task.assigned_endpoint] += task.cores
            if task.state in _TERMINAL:
                done += 1
        wid = handle.workflow_id
        undispatched[wid] = waiting
        demand[wid] = len(handle.engine.index.queued_tasks()) + waiting
        staged[wid] = dict(cores)
        terminal[wid] = done
    claims = {name: placed[name] for name in names}
    free = {name: manager.federation.endpoint_monitor.free_capacity(name) for name in names}
    return active, demand, staged, terminal, undispatched, claims, free


def nonzero(mapping):
    return {key: value for key, value in mapping.items() if value}


def check_aggregates_every_pump(manager):
    """Wrap the pump and the policy so every round is held to the oracle."""
    checks = Counter()
    pump, allocate = manager._pump, manager.policy.allocate

    def checked_pump(active_arg):
        active, demand, staged, terminal, undispatched, claims, _ = rebuild(manager)
        assert active == active_arg
        assert nonzero(manager._claims) == nonzero(claims)
        for handle in active:
            wid, store = handle.workflow_id, handle.graph.store
            assert store.terminal == terminal[wid]
            assert store.undispatched_count == undispatched[wid]
            assert store.staged_cores == staged[wid]
            assert manager._staged[wid] is store.staged_cores
            if handle not in manager._due:
                # Not due means nothing it owns moved: its demand entry,
                # refreshed at its last visit, must still be right.
                assert manager._demand_size[wid] == demand[wid]
        checks["pump"] += 1
        return pump(active_arg)

    def checked_allocate(free_arg, demands, tenants, *, record_service=True):
        active, demand, staged, _, _, claims, free = rebuild(manager)
        assert [t.workflow_id for t in tenants] == [h.workflow_id for h in active]
        got = {wid: nonzero(per_endpoint) for wid, per_endpoint in demands.items()}
        if record_service:
            assert dict(free_arg) == free
            assert got == staged
        else:
            assert dict(free_arg) == {n: max(0, free[n] - claims[n]) for n in free}
            assert got == {wid: nonzero(dict.fromkeys(free, demand[wid])) for wid in demand}
        checks["allocate"] += 1
        return allocate(free_arg, demands, tenants, record_service=record_service)

    manager._pump = checked_pump
    manager.policy.allocate = checked_allocate
    return checks


tenant_shapes = st.tuples(
    st.sampled_from(["chain", "stress"]),
    st.integers(min_value=1, max_value=7),  # tasks
    st.floats(min_value=0.0, max_value=6.0),  # arrival
)


@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    policy=st.sampled_from(["fifo", "fair_share", "priority", "edf"]),
    tenants=st.lists(tenant_shapes, min_size=2, max_size=4),
    dynamics=st.sampled_from(["none", "crash", "churn"]),
    pause=st.booleans(),
)
def test_incremental_aggregates_equal_a_brute_force_rebuild(policy, tenants, dynamics, pause):
    env = build_env()
    manager = make_manager(env, policy=policy)
    handles = []
    for i, (shape, tasks, arrival) in enumerate(tenants):
        builder = chain_builder(length=tasks) if shape == "chain" else stress_builder(tasks * 3)
        handles.append(
            manager.add_workflow(
                f"wf{i}", arrival_s=arrival, priority=i % 2, deadline_s=50.0 - i, builder=builder
            )
        )
    timeline = {
        "none": [],
        "crash": [
            TimelineEvent(at_s=3.0, action="crash", endpoint="b"),
            TimelineEvent(at_s=9.0, action="rejoin", endpoint="b", value=4.0),
        ],
        "churn": [TimelineEvent(at_s=2.0, action="churn", endpoint="a", value=-5.0)],
    }[dynamics]
    DynamicsInjector(env, manager.federation).install(timeline)
    if pause:
        kernel = env.fabric.kernel
        kernel.schedule_at(2.5, handles[0].pause)
        kernel.schedule_at(7.5, handles[0].resume)
    checks = check_aggregates_every_pump(manager)
    manager.run(max_wall_time_s=60)
    assert all(h.finished for h in handles)
    assert checks["pump"] and checks["allocate"]
    assert nonzero(manager._claims) == {} and manager._staged == {} and not manager._due


def test_the_claim_sum_is_zero_after_a_multi_tenant_preset(monkeypatch):
    managers = []
    run = WorkflowManager.run

    def spy_run(self, *args, **kwargs):
        managers.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(WorkflowManager, "run", spy_run)
    result = run_scenario(SCENARIOS["multi-tenant"])
    assert result.completed_tasks == result.total_tasks
    (manager,) = managers
    # The tenant stores wrote their placements through, and took every one
    # of them out again by the end.
    assert manager._claims and nonzero(manager._claims) == {}


# ------------------------------------------------------ (c) fair-share is stateful
def gate_closed_federation(policy):
    """Two tenants whose staged tasks never pass the dispatch gate."""
    env = build_env()
    manager = make_manager(env, policy=policy, enable_delay_mechanism=False)
    handles = [manager.add_workflow(f"wf{i}", builder=stress_builder(6)) for i in range(2)]
    manager.stall_hard_rounds = 12
    return manager, handles


def count_dispatch_allocations(manager):
    grants = []
    allocate = manager.policy.allocate

    def counting(free, demands, tenants, *, record_service=True):
        allocation = allocate(free, demands, tenants, record_service=record_service)
        if record_service:
            grants.append(allocation)
        return allocation

    manager.policy.allocate = counting
    return grants


def close_the_gate(manager, handles):
    manager._activate_due()
    for handle in handles:
        handle.scheduler.dispatch_allowance = lambda endpoint: 0


def test_fair_share_allocation_is_never_skipped_once_service_moved():
    manager, handles = gate_closed_federation("fair_share")
    grants = count_dispatch_allocations(manager)
    close_the_gate(manager, handles)
    pumps = []
    pump = manager._pump
    manager._pump = lambda active: pumps.append(dict(manager.policy._served)) or pump(active)
    with pytest.raises(SchedulingError, match="no progress"):
        manager.run()
    # Every round pumped (the unconsumed grant left ``_dirty`` set), every
    # pump re-allocated (the grant moved ``_served``), every grant differs
    # from a repeat of the last only through that service history.
    assert len(pumps) >= manager.stall_hard_rounds
    assert len(grants) == len(pumps)
    served = [sum(snapshot.values()) for snapshot in pumps]
    assert served == sorted(set(served))


def test_stateless_policy_allocates_once_while_nothing_moves():
    manager, handles = gate_closed_federation("fifo")
    grants = count_dispatch_allocations(manager)
    close_the_gate(manager, handles)
    attempts = Counter()
    for handle in handles:
        dispatch = handle.engine.dispatch.dispatch_staged

        def counted(*args, _dispatch=dispatch, _wid=handle.workflow_id, **kwargs):
            attempts[_wid] += 1
            return _dispatch(*args, **kwargs)

        handle.engine.dispatch.dispatch_staged = counted
    with pytest.raises(SchedulingError, match="no progress"):
        manager.run()
    # Same inputs, same grant: one allocation stands for the whole stretch,
    # and the tenants holding its budgets are still retried every round.
    assert len(grants) == 1 and all(grants[0].values())
    assert all(attempts[h.workflow_id] >= manager.stall_hard_rounds for h in handles)


def test_fair_share_state_version_moves_with_served():
    policy = FairShareArbitration()
    tenants = [TenantShare("a", arrival_index=0), TenantShare("b", arrival_index=1)]
    demands = {"a": {"x": 3}, "b": {"x": 3}}
    before = policy.state_version
    policy.allocate({"x": 4}, demands, tenants, record_service=False)
    assert policy.state_version == before and policy._served == {}
    policy.allocate({"x": 4}, demands, tenants)
    assert policy.state_version > before and sum(policy._served.values()) == 4
    moved = policy.state_version
    policy.allocate({"x": 0}, demands, tenants)
    assert policy.state_version == moved  # nothing granted, nothing served


# ---------------------------------------------- (d) a silent tenant's slice moves
def test_undispatched_tenant_is_resliced_when_capacity_moves(monkeypatch):
    env = build_env(endpoints=(("a", "qiming", 10), ("b", "lab", 2)))
    manager = make_manager(env, policy="fifo", enable_delay_mechanism=False)
    busy = manager.add_workflow("busy", builder=stress_builder(2))
    silent = manager.add_workflow("silent", builder=stress_builder(3))
    for name in env.fabric.endpoint_names():  # what run() does first
        manager.federation.endpoint_monitor.register(name)
    manager._activate_due()
    asked = []
    silent.scheduler.dispatch_allowance = lambda endpoint: asked.append(endpoint) or 0
    # Two pumps: place / stage / dispatch, then settle.
    manager._pump(manager._active)
    manager._pump(manager._active)
    assert silent.engine.graph.store.undispatched_count == 3
    assert not silent.engine.index.queued_count
    assert silent not in manager._due
    # Its three placed tasks claim ``b``; the slice offers it three more of ``a``.
    assert silent.scheduler._capacity_slice == {"a": 3}

    visits = []
    drain = ExecutionEngine.drain_growth
    monkeypatch.setattr(
        ExecutionEngine, "drain_growth", lambda self: visits.append(self.namespace) or drain(self)
    )
    # A brownout nobody announced to ``silent``: workers vanish, and the only
    # event is the CapacityChanged of another tenant's periodic sync.
    env.endpoint("a").apply_capacity_change(-8)
    env.service.endpoint_status("a", force_refresh=True)
    manager.federation.endpoint_monitor.synchronize(force=True)
    busy.bus.publish(CapacityChanged(time=manager.federation.clock.now))
    assert manager._due == {busy}
    manager._pump(manager._active)

    assert visits == ["busy"]
    assert manager._free_capacity()["a"] == 2
    assert silent.scheduler._capacity_slice == {"a": 2}
    # Its closed gate kept it silent: asked once, when the moved capacity
    # opened a budget on ``b``, it let nothing leave.
    assert asked == ["b"] and silent.engine.graph.store.undispatched_count == 3
