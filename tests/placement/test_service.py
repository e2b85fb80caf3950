"""Plan lifecycle under dynamics: crash excludes, rejoin re-admits."""

import copy

import pytest

from repro.core.functions import SimProfile, function, set_current_client
from repro.data.remote_file import GlobusFile
from repro.engine.events import EndpointCrashed, EndpointRejoined, WorkerChurn

from tests.integration.conftest import build_two_site_env
from tests.serving.serving_env import build_env
from tests.serving.test_workflow_manager import make_manager, stress_builder


@function(sim_profile=SimProfile(base_time_s=3.0, output_base_mb=0.0))
def read_hot(*files):
    return None


@pytest.fixture(autouse=True)
def clean_client_context():
    set_current_client(None)
    yield
    set_current_client(None)


def _client_with_pending_consumers(tasks: int = 8):
    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    hot = GlobusFile("hot-data", size_mb=64.0, location="site_b")
    with client:
        futures = [read_hot(hot) for _ in range(tasks)]
    # What the run loop does before its first round — monitor the endpoints,
    # build the scheduling context — so the service can snapshot demand.
    for name in env.fabric.endpoint_names():
        client.endpoint_monitor.register(name)
    client.engine.start()
    return env, client, futures


def test_the_federation_builds_the_service_by_default():
    env, client, _ = _client_with_pending_consumers()
    service = client.engine.plan_service
    assert service is not None
    assert client.engine.scheduler.plan_provider is not None
    plan = service.resolve(env.kernel.clock.now)
    assert plan is service.current_plan()
    assert service.solve_count == 1
    assert set(plan.warm_endpoints) <= {"site_a", "site_b"}


def test_disabled_flag_leaves_every_consumer_unwired():
    env = build_two_site_env()
    config = env.make_config("DHA")
    config.enable_placement_plan = False
    client = env.make_client(config)
    assert client.engine.plan_service is None
    assert client.engine.scheduler.plan_provider is None


def test_crash_bumps_generation_and_resolve_excludes_the_endpoint():
    env, client, _ = _client_with_pending_consumers()
    service = client.engine.plan_service
    service.resolve(env.kernel.clock.now)
    generation = service.generation

    client.federation.bus.publish(
        EndpointCrashed(time=env.kernel.clock.now, endpoint="site_a")
    )
    assert service.generation == generation + 1
    assert service.capture_state()["offline"] == ["site_a"]

    plan = service.maybe_resolve(env.kernel.clock.now)
    assert "site_a" not in plan.warm_endpoints
    assert all(root != "site_a" for root in plan.replica_roots.values())

    # A repeated crash of an endpoint already offline changes nothing.
    again = service.generation
    service.mark_offline("site_a")
    assert service.generation == again


def test_rejoin_readmits_the_endpoint():
    env, client, _ = _client_with_pending_consumers()
    service = client.engine.plan_service
    service.mark_offline("site_a")
    generation = service.generation

    client.federation.bus.publish(
        EndpointRejoined(time=env.kernel.clock.now, endpoint="site_a", workers=8)
    )
    assert service.generation == generation + 1
    assert service.capture_state()["offline"] == []
    # Re-admitted: the endpoint is eligible again (the solver may still
    # choose to keep it cold, but it is back in the candidate set).
    plan = service.resolve(env.kernel.clock.now)
    assert plan.generation == service.generation


def test_churn_invalidates_without_touching_the_offline_set():
    env, client, _ = _client_with_pending_consumers()
    service = client.engine.plan_service
    generation = service.generation
    client.federation.bus.publish(
        WorkerChurn(time=env.kernel.clock.now, endpoint="site_a", delta_workers=-2)
    )
    assert service.generation == generation + 1
    assert service.capture_state()["offline"] == []


def test_one_churn_event_forwarded_by_every_tenant_bumps_and_solves_once():
    env = build_env()
    manager = make_manager(env)
    for i in range(4):
        manager.add_workflow(f"wf{i}", builder=stress_builder(30, duration=4.0))
    service = manager.federation.plan_service
    seen = []

    def churn():
        before = (service.generation, service.solve_count)
        # The control bus forwards the one event object to all four tenants.
        manager.federation.bus.publish(
            WorkerChurn(time=env.kernel.clock.now, endpoint="a", delta_workers=-1)
        )
        seen.append((before, (service.generation, service.solve_count)))

    env.kernel.schedule(1.0, churn)
    manager.run(max_wall_time_s=60)
    [((generation, solves), after)] = seen
    assert after == (generation + 1, solves + 1)


def test_maybe_resolve_honours_cadence_and_generation():
    env, client, _ = _client_with_pending_consumers()
    service = client.engine.plan_service
    now = env.kernel.clock.now
    service.maybe_resolve(now)
    assert service.solve_count == 1
    # Fresh generation, cadence not elapsed: cached plan, no second solve.
    service.maybe_resolve(now + 0.1)
    assert service.solve_count == 1
    # A bump forces the re-solve regardless of the cadence.
    service.bump()
    service.maybe_resolve(now + 0.2)
    assert service.solve_count == 2
    # Cadence elapsed re-solves even without invalidation.
    service.maybe_resolve(now + 0.2 + service.interval_s)
    assert service.solve_count == 3


def test_capture_state_pins_plan_and_rng_stream():
    env, client, _ = _client_with_pending_consumers()
    service = client.engine.plan_service
    service.resolve(env.kernel.clock.now)
    state = service.capture_state()
    assert state["solves"] == 1
    assert state["offline"] == []
    assert state["plan"]["generation"] == service.generation
    assert state["rng"] == service._rng.bit_generator.state

    # Further solves and draws must not mutate an already-written snapshot
    # section.  The section is independent of the live stream because numpy
    # builds a new dict, nested ``state`` dict included, on every
    # ``bit_generator.state`` read.
    captured_rng = copy.deepcopy(state["rng"])
    service.bump()
    service.resolve(env.kernel.clock.now)
    service._rng.random()
    assert state["solves"] == 1
    assert state["rng"] == captured_rng
    assert service.capture_state()["rng"] != captured_rng
    assert service.capture_state()["solves"] == 2


def test_end_to_end_run_completes_with_placement_on():
    env, client, futures = _client_with_pending_consumers()
    client.run()
    assert all(f.done() for f in futures)
    assert client.engine.plan_service.solve_count >= 1
