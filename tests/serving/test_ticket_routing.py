"""A staging ticket notifies its owner alone.

The data plane is shared by every tenant, but a ticket belongs to one
workflow namespace: its completion reaches that tenant's staging coordinator
and nobody else's, and a retired namespace has no one left to notify.
"""

from repro.data.remote_file import GlobusFile
from repro.dataplane.plane import DataPlane
from repro.engine.staging import StagingCoordinator

from tests.serving.serving_env import build_env
from tests.serving.test_workflow_manager import make_manager
from tests.streaming.test_retirement import fanin_builder


def spy(monkeypatch, cls, name, log):
    original = getattr(cls, name)

    def wrapper(self, *args, **kwargs):
        log.append((self, args))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def test_each_ticket_reaches_one_coordinator_and_nothing_after_retire(monkeypatch):
    staged, notified, delivered = [], [], []
    spy(monkeypatch, DataPlane, "stage", staged)
    spy(monkeypatch, DataPlane, "_notify", notified)
    # Coordinators register their bound method at construction, so the spy
    # must be in place before the tenants are added.
    spy(monkeypatch, StagingCoordinator, "_on_ticket_done", delivered)

    env = build_env()
    # Without the placement plan, some joins read a producer's output across
    # endpoints: tickets with transfers behind them, not only local ones.
    manager = make_manager(env, enable_placement_plan=False)
    handles = [manager.add_workflow(f"wf{i}", builder=fanin_builder()) for i in range(3)]
    manager.run(max_wall_time_s=60)
    plane = manager.federation.data_manager
    assert manager.summary().completed_tasks == 3 * 7
    assert plane.total_transferred_mb > 0.0  # producers' outputs crossed endpoints

    tickets = [args[0] for _, args in notified]
    # Every ticket issued is notified once (a superseded one never is) ...
    assert len(tickets) == len(set(map(id, tickets))) == len(staged) - plane.superseded_tickets
    # ... and delivered once, to its own tenant's coordinator: with the
    # three tenants active together, a broadcast would deliver each up to
    # three times.
    assert len(delivered) == len(tickets)
    for coordinator, (ticket,) in delivered:
        assert coordinator._engine.namespace == ticket.namespace
    assert {t.namespace for t in tickets} == {"wf0", "wf1", "wf2"}

    retired = handles[0]
    manager.retire(retired)
    assert "wf0" not in plane._staged_callbacks
    assert set(plane._staged_callbacks) == {"wf1", "wf2"}

    # A transfer of the retired namespace landing afterwards notifies nobody.
    before = len(delivered)
    late_input = GlobusFile("late-input", size_mb=8.0, location="a")
    ticket = plane.stage("wf0/task-late", [late_input], "b")
    assert not ticket.done
    env.kernel.run()
    assert ticket.completed_at is not None and not ticket.failed
    assert notified[-1][1] == (ticket,)
    assert len(delivered) == before
