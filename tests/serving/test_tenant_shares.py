"""Each tenant keeps one arbitration share for its whole life.

``WorkflowHandle.share`` is what the arbitration policies see of a tenant.
Its FIFO key, ``arrival_index``, is the arrival time, stamped once at
registration; every policy breaks its ties on the id, so it orders tenants as
``(arrival_s, workflow_id)`` does and no later membership change (activation,
pause, another tenant's retirement or registration) has to restamp or replace
it.
"""

import pytest

from tests.serving.serving_env import build_env
from repro.serving import Federation, WorkflowManager
from repro.serving.arbitration import ARBITRATION_POLICIES, TenantShare
from repro.workloads.synthetic import build_stress_workload


def stress_builder(handle):
    build_stress_workload(handle, 4, 1.0, output_mb=0.0)


def fresh_share(handle, arrival_index):
    """The share built from scratch from the handle, with ``arrival_index``."""
    return TenantShare(
        workflow_id=handle.workflow_id,
        weight=handle.weight,
        priority=handle.priority,
        arrival_index=arrival_index,
        deadline=handle.deadline_s,
    )


def make_manager(policy):
    env = build_env()
    config = env.make_config("DHA", enable_scaling=False)
    manager = WorkflowManager(
        Federation(config, env.fabric, transfer_backend=env.transfer_backend),
        arbitration=policy,
    )
    for name in env.fabric.endpoint_names():
        manager.federation.endpoint_monitor.register(name)
    return manager


@pytest.mark.parametrize("policy", ARBITRATION_POLICIES)
def test_shares_are_kept_across_a_retirement(policy):
    manager = make_manager(policy)
    # Same arrival time: the id breaks the tie, so this is also FIFO order.
    deadlines = {"a-early": 50.0, "b-mid": 80.0, "c-late": 20.0}
    handles = {
        wid: manager.add_workflow(wid, builder=stress_builder, deadline_s=deadline)
        for wid, deadline in deadlines.items()
    }
    manager._activate_due()
    early, mid, late = handles.values()
    kept = {handle: handle.share for handle in (mid, late)}
    mid.pause()
    mid.resume()
    assert all(handle.share is share for handle, share in kept.items())

    early.cancel()
    manager.retire(early)
    newest = manager.add_workflow("d-newest", builder=stress_builder, deadline_s=60.0)
    manager._activate_due()

    live = manager.workflows()
    assert live == [mid, late, newest]
    for handle in live:
        assert handle.share == fresh_share(handle, 0.0)
    assert all(handle.share is share for handle, share in kept.items())
    assert manager._shares == [handle.share for handle in live]

    free = {"a": 6, "b": 3}
    demands = {handle.workflow_id: {"a": 4, "b": 4} for handle in live}
    allocation = manager.policy.allocate(free, demands, manager._shares, record_service=False)
    # The same tenants stamped with their list positions allocate the same.
    by_position = manager.policy.allocate(
        free,
        demands,
        [fresh_share(handle, index) for index, handle in enumerate(live)],
        record_service=False,
    )
    assert allocation == by_position
    first = {"fifo": "b-mid", "priority": "b-mid", "edf": "c-late"}.get(policy)
    if first is not None:
        assert allocation[first] == {"a": 4, "b": 3}


def test_registration_order_is_not_arrival_order():
    manager = make_manager("fifo")
    shares = {}
    for wid, arrival_s in (("b", 5.0), ("a", 5.0), ("c", 1.0)):
        handle = manager.add_workflow(wid, builder=stress_builder, arrival_s=arrival_s)
        shares[handle] = handle.share
    assert [h.workflow_id for h in manager.workflows()] == ["c", "a", "b"]
    assert [h.share.arrival_index for h in manager.workflows()] == [1.0, 5.0, 5.0]
    manager.run(max_wall_time_s=60)
    assert all(h.graph.is_complete() for h in manager.workflows())
    # One share per registration, none replaced by later ones or by the run.
    assert all(handle.share is share for handle, share in shares.items())
