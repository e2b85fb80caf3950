"""One route from ready to placed.

A task joins the engine's :class:`~repro.engine.state.TaskIndex` when it
becomes READY — the scheduling queue, or the pinned set when it carries an
endpoint hint — and the next pump's ``schedule_ready`` places it.  The run
below pins roots and several successors of each completion (some of them
joins that wait on two producers), and adds failed attempts and a crash,
the paths that re-place tasks outside the queue.  At every
``schedule_ready`` it checks that each waiting task is READY, that the
scheduler is never handed a pinned task, and that ``schedule_ready``
places every task exactly once, a pinned one on its pin.
"""

from collections import Counter

from repro.core.client import ENDPOINT_HINT_KWARG
from repro.core.dag import READY_CODE, TaskState
from repro.engine.events import TaskCompleted, TaskPlaced
from repro.scenarios.dynamics import DynamicsInjector, TimelineEvent
from repro.workloads.spec import TaskTypeSpec, make_task_type

from tests.integration.conftest import build_two_site_env

PRODUCE = TaskTypeSpec(name="route_produce", duration_s=2.0, output_mb=2.0)
FOLLOW = TaskTypeSpec(name="route_follow", duration_s=1.0, output_mb=1.0)
SITES = ("site_a", "site_b")
PENDING_DISPATCH = (TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED)


def submit_waves(client):
    """Six waves of pinned and unpinned roots and successors; returns the
    pins (task id -> its endpoint hint)."""
    produce, follow = make_task_type(PRODUCE), make_task_type(FOLLOW)
    pins = {}

    def pinned(task_type, *args, site):
        future = task_type(*args, **{ENDPOINT_HINT_KWARG: site})
        pins[future.task_id] = site
        return future

    with client:
        for wave in range(6):
            roots = [
                pinned(produce, site=SITES[wave % 2]),
                pinned(produce, site=SITES[(wave + 1) % 2]),
                produce(),
            ]
            for i, root in enumerate(roots):
                # Several pinned successors per completion, next to unpinned
                # ones; a join on two roots waits PENDING after the first.
                for site in ("site_a", "site_b", "site_a"):
                    pinned(follow, root, site=site)
                follow(root)
                pinned(follow, root, roots[(i + 1) % 3], site=SITES[i % 2])
    return pins


def crash_and_rejoin_site_b(env, client):
    injector = DynamicsInjector(env, client.federation)
    injector.install([
        TimelineEvent(at_s=3.0, action="crash", endpoint="site_b"),
        TimelineEvent(at_s=9.0, action="rejoin", endpoint="site_b", value=8),
    ])
    return injector


def test_every_ready_task_waits_ready_and_is_placed_once_by_its_route():
    env = build_two_site_env(failure_rate_a=0.3, seed=7)
    client = env.make_client(env.make_config("DHA", max_task_retries=1))
    engine = client.engine
    store = engine.graph.store
    pins = submit_waves(client)

    placed_by_pump = []  # (task id, endpoint) placed inside schedule_ready
    pumping = [False]
    handed = []

    def on_placed(event):
        if pumping[0]:
            placed_by_pump.append((event.task_id, event.endpoint))

    engine.bus.subscribe(TaskPlaced, on_placed)

    schedule = engine.scheduler.schedule

    def checked_schedule(tasks):
        handed.extend(t.task_id for t in tasks)
        assert not [t.task_id for t in tasks if t.task_id in pins]
        return schedule(tasks)

    engine.scheduler.schedule = checked_schedule

    schedule_ready = engine.placement.schedule_ready
    calls = [0]

    def checked_schedule_ready():
        index = engine.index
        waiting = index.queued_tasks() + list(index.pinned.values())
        assert all(store.state[t._row] == READY_CODE for t in waiting)
        assert not [t.task_id for t in index.queued_tasks() if t.task_id in pins]
        assert all(t.task_id in pins for t in index.pinned.values())
        assert index.queued_count == len(waiting)
        calls[0] += 1
        pumping[0] = True
        try:
            return schedule_ready()
        finally:
            pumping[0] = False

    engine.placement.schedule_ready = checked_schedule_ready

    failed_attempts = []
    engine.bus.subscribe(TaskCompleted, failed_attempts.append)
    injector = crash_and_rejoin_site_b(env, client)

    client.run(max_wall_time_s=120.0)

    # Every task ends terminal; a few exhaust both sites during the crash.
    assert client.graph.is_complete()
    tasks = client.graph.tasks()
    # The run exercised what it is for.
    assert [e.action for e in injector.fired] == ["crash", "rejoin"]
    assert failed_attempts
    assert calls[0] > 1

    counts = Counter(task_id for task_id, _ in placed_by_pump)
    assert counts == Counter(t.task_id for t in tasks)
    on_pin = {task_id: endpoint for task_id, endpoint in placed_by_pump if task_id in pins}
    assert on_pin == pins
    assert set(handed) == {t.task_id for t in tasks} - set(pins)


def test_the_undispatched_index_is_exactly_the_pending_dispatch_rows():
    # What the re-scheduling pass and the crash reaction walk without a state
    # filter, and what the scaling pressure counts: after every pump round the
    # index holds the SCHEDULED / STAGING / STAGED rows and nothing else.
    env = build_two_site_env(failure_rate_a=0.3, seed=7)
    client = env.make_client(env.make_config("DHA", max_task_retries=1))
    graph = client.graph
    submit_waves(client)
    pump = client.manager._pump
    rounds = []

    def checked_pump(active):
        progressed = pump(active)
        pending = [t.task_id for t in graph.in_state(*PENDING_DISPATCH)]
        undispatched = [t.task_id for t in client.engine.index.undispatched_tasks()]
        assert sorted(undispatched) == sorted(pending)
        assert graph.store.undispatched_count == len(pending)
        rounds.append(len(pending))
        return progressed

    client.manager._pump = checked_pump
    injector = crash_and_rejoin_site_b(env, client)
    client.run(max_wall_time_s=120.0)

    assert graph.is_complete()
    assert [e.action for e in injector.fired] == ["crash", "rejoin"]
    assert max(rounds) > 0 and rounds[-1] == 0
