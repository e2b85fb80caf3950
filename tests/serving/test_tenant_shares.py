"""Each tenant keeps one arbitration share, replaced only when its FIFO
position is restamped.

``WorkflowHandle.share`` is what the arbitration policies see of a tenant.
Membership changes (activation, pause, finish) reuse it; ``add_workflow``'s
restamp replaces it when the tenant's ``arrival_index`` moves, which happens
to every survivor of an earlier tenant's retirement.
"""

import pytest

from tests.serving.serving_env import build_env
from repro.serving import WorkflowManager
from repro.serving.arbitration import TenantShare
from repro.workloads.synthetic import build_stress_workload


def stress_builder(handle):
    build_stress_workload(handle, 4, 1.0, output_mb=0.0)


def fresh_share(handle):
    """The share as it would be built from scratch from the handle."""
    return TenantShare(
        workflow_id=handle.workflow_id,
        weight=handle.weight,
        priority=handle.priority,
        arrival_index=handle.arrival_index,
        deadline=handle.deadline_s,
    )


@pytest.mark.parametrize("policy", ["fifo", "edf"])
def test_restamped_shares_after_a_retirement(policy):
    env = build_env()
    config = env.make_config("DHA", enable_scaling=False)
    manager = WorkflowManager(
        config, env.fabric, transfer_backend=env.transfer_backend, arbitration=policy
    )
    for name in env.fabric.endpoint_names():
        manager.endpoint_monitor.register(name)
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
    assert [share.arrival_index for share in manager._shares] == [0, 1, 2]

    early.cancel()
    manager.retire(early)
    newest = manager.add_workflow("d-newest", builder=stress_builder, deadline_s=60.0)
    manager._activate_due()

    live = manager.workflows()
    assert live == [mid, late, newest]
    for index, handle in enumerate(live):
        assert handle.arrival_index == index
        assert handle.share == fresh_share(handle)
    # The survivors moved up one place, so their shares were replaced.
    assert all(handle.share is not share for handle, share in kept.items())
    assert manager._shares == [handle.share for handle in live]

    free = {"a": 6, "b": 3}
    demands = {handle.workflow_id: {"a": 4, "b": 4} for handle in live}
    allocation = manager.policy.allocate(free, demands, manager._shares, record_service=False)
    rebuilt = manager.policy.allocate(
        free, demands, [fresh_share(handle) for handle in live], record_service=False
    )
    assert allocation == rebuilt
    first = {"fifo": "b-mid", "edf": "c-late"}[policy]
    assert allocation[first] == {"a": 4, "b": 3}
