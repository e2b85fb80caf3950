"""One reaction per dynamics event, whatever the tenant count.

A crash, rejoin or churn on the federation's control bus changes the shared
substrate — endpoint monitor, placement plan, elastic scaler, data plane —
and the federation meets it there once, before any tenant hears of it.  Each
tenant's bus then carries the event to that tenant's own reactions, which
therefore all see the substrate already updated.
"""

from repro.dataplane import DataPlane
from repro.engine.events import EndpointCrashed, EndpointRejoined
from repro.engine.failure import FailureCoordinator
from repro.engine.periodic import PeriodicCoordinator
from repro.scenarios.dynamics import DynamicsInjector, TimelineEvent
from repro.serving import Federation, WorkflowManager

from tests.integration.conftest import build_two_site_env
from tests.serving.test_run_loop import chains

TENANTS = 3
CRASHED = "site_a"


def run_crash_and_rejoin(monkeypatch):
    """Three tenants through a crash at 1.5 s and a rejoin at 3 s.

    Returns per-event substrate deltas and what each tenant-level reaction
    saw of the data plane's quarantine.
    """
    plane_crashes = []
    crash_views, rejoin_views = [], []
    during = []

    original_crashed = DataPlane.on_endpoint_crashed

    def counted_crashed(self, endpoint):
        plane_crashes.append(endpoint)
        return original_crashed(self, endpoint)

    original_handler = FailureCoordinator._on_endpoint_crashed

    def seen_crash(self, event):
        crash_views.append(self._engine.data_manager.store.is_offline(event.endpoint))
        return original_handler(self, event)

    original_pass = PeriodicCoordinator.run_rescheduling

    def seen_pass(self):
        if during and isinstance(during[-1], EndpointRejoined):
            rejoin_views.append(self._engine.data_manager.store.is_offline(CRASHED))
        return original_pass(self)

    monkeypatch.setattr(DataPlane, "on_endpoint_crashed", counted_crashed)
    monkeypatch.setattr(FailureCoordinator, "_on_endpoint_crashed", seen_crash)
    monkeypatch.setattr(PeriodicCoordinator, "run_rescheduling", seen_pass)

    env = build_two_site_env()
    manager = WorkflowManager(
        Federation(env.make_config("DHA"), env.fabric, transfer_backend=env.transfer_backend)
    )
    handles = [manager.add_workflow(f"wf{i}", builder=chains) for i in range(TENANTS)]
    monitor, service = manager.federation.endpoint_monitor, manager.federation.plan_service
    deltas = {}
    publish = manager.federation.bus.publish

    def observed(event):
        before = (monitor.sync_count, service.generation, service.solve_count)
        during.append(event)
        try:
            publish(event)
        finally:
            during.pop()
        after = (monitor.sync_count, service.generation, service.solve_count)
        deltas[type(event)] = tuple(b - a for a, b in zip(before, after))

    manager.federation.bus.publish = observed
    DynamicsInjector(env, manager.federation).install(
        [
            TimelineEvent(at_s=1.5, action="crash", endpoint=CRASHED),
            TimelineEvent(at_s=3.0, action="rejoin", endpoint=CRASHED, value=8.0),
        ]
    )
    manager.run(max_wall_time_s=60)
    assert all(h.graph.is_complete() for h in handles)
    endpoints = len(monitor.endpoint_names())
    return deltas, endpoints, plane_crashes, crash_views, rejoin_views


def test_one_crash_is_one_monitor_pass_one_invalidation_and_one_quarantine(monkeypatch):
    deltas, endpoints, plane_crashes, _, _ = run_crash_and_rejoin(monkeypatch)
    for event_type in (EndpointCrashed, EndpointRejoined):
        syncs, generations, solves = deltas[event_type]
        assert syncs == endpoints  # one forced pass, not one per tenant
        assert generations == 1
        assert solves <= 1
    assert plane_crashes == [CRASHED]


def test_every_tenant_reacts_to_the_substrate_already_updated(monkeypatch):
    _, _, _, crash_views, rejoin_views = run_crash_and_rejoin(monkeypatch)
    # The first tenant's failure coordinator included: the replicas on the
    # dead endpoint are quarantined before any tenant re-places a task ...
    assert crash_views == [True] * TENANTS
    # ... and re-admitted before any tenant's re-scheduling pass.
    assert rejoin_views == [False] * TENANTS
