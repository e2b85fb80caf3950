"""The dispatch walk's per-endpoint allowance against the per-head gate.

``tests/reference/per_head_gate.py`` keeps the walk as it was: every queue
head the budget lets through asks the scheduler's per-task gate, and each ask
reads the endpoint monitor afresh.  The product asks the scheduler once per
endpoint walk and spends the answer; with mocking off, where every read
re-synchronises against the service, it asks again after each dispatch.

Two identical worlds are drawn from one seed — endpoints with multi-core
tasks queued on them (some moved away or already dispatched), mocks that
disagree with the service, a DHA scheduler with or without the delay
mechanism, mocking on or off, and a service status that is either cached
(constant within an instant, as the simulated service serves it) or live
(moving with every submission, as a local thread pool's does).  Several
rounds of walks with random budgets and ``force``, completions in between,
run through each; the dispatched tasks, their order, what is left queued and
every mock counter must be equal after every round.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import TaskState
from repro.engine.bus import EventBus
from repro.engine.dispatch import DispatchCoordinator
from repro.engine.state import TaskIndex
from repro.sched.dha import DHAScheduler
from tests.reference import per_head_gate as reference
from tests.sched.conftest import EndpointSpec, add_task, build_context, place

NAMES = ("e0", "e1", "e2")


class _Fabric:
    """Records submissions; a ``live`` one occupies the service's workers
    at once, so the next status read sees them."""

    def __init__(self, specs, live):
        self.specs = specs
        self.live = live
        self.submitted = []

    def build_request(self, task):
        return task

    def submit(self, endpoint, task):
        self.submitted.append((endpoint, task.name, task._row))
        if self.live:
            self.specs[endpoint].busy += int(task._store.cores[task._row])


class _Engine:
    """The attributes of an engine the dispatch coordinator reads."""

    def __init__(self, bundle, scheduler, fabric):
        self.bus = EventBus()
        self.graph = bundle.graph
        self.clock = bundle.kernel.clock
        self.scheduler = scheduler
        self.fabric = fabric
        self.index = TaskIndex()
        self.endpoint_monitor = bundle.monitor
        self.prefetcher = None


def build_world(seed):
    rng = random.Random(seed)
    names = NAMES[: rng.randint(1, len(NAMES))]
    specs = {}
    for name in names:
        workers = rng.randint(0, 6)
        specs[name] = EndpointSpec(
            workers=workers, busy=rng.randint(0, workers), pending=rng.choice((0, 0, 1))
        )
    bundle = build_context(specs)
    monitor = bundle.monitor
    monitor.mocking_enabled = rng.random() < 0.5
    # Mocks that drifted from the service: dispatches it has not reported
    # yet, and a service view that moved since the last sync.
    for _ in range(rng.randint(0, 3)):
        monitor.record_dispatch(rng.choice(names), cores=rng.randint(1, 2))
    for spec in specs.values():
        if rng.random() < 0.3:
            spec.busy = rng.randint(0, spec.workers)
    scheduler = DHAScheduler(enable_delay_mechanism=rng.random() < 0.8)
    scheduler.initialize(bundle.context)
    fabric = _Fabric(specs, live=rng.random() < 0.5)
    coordinator = DispatchCoordinator(_Engine(bundle, scheduler, fabric))
    graph = bundle.graph
    for _ in range(rng.randint(0, 12)):
        queue = rng.choice(names)
        task = add_task(graph)
        graph.store.cores[task._row] = rng.choice((1, 1, 1, 2, 3))
        # Mostly staged where it is queued; sometimes moved on, or already
        # dispatched by an earlier round.
        roll = rng.random()
        target = rng.choice(names) if roll < 0.15 else queue
        place(graph, task, target, TaskState.STAGED)
        if roll > 0.92:
            graph.set_state(task, TaskState.DISPATCHED)
        coordinator._staged_queues[queue].append(task)
    rounds = []
    for _ in range(rng.randint(1, 4)):
        budget = None
        if rng.random() < 0.5:
            budget = {name: rng.randint(0, 4) for name in names if rng.random() < 0.8}
        completions = [rng.choice(names) for _ in range(rng.randint(0, 2))]
        rounds.append((rng.random() < 0.15, budget, completions))
    return bundle, fabric, coordinator, rounds


def observed(bundle, fabric, coordinator):
    monitor = bundle.monitor
    mocks = {
        name: (
            mock.active_workers,
            mock.busy_workers,
            mock.pending_tasks,
            mock.outstanding_tasks,
            mock.last_synced_at,
        )
        for name, mock in monitor._mocks.items()
    }
    queues = {name: [t._row for t in queue] for name, queue in coordinator._staged_queues.items()}
    return (
        list(fabric.submitted),
        queues,
        mocks,
        monitor.state_version,
        monitor.hardware_version,
        bundle.graph.store.counts(),
    )


def run(seed, walk):
    bundle, fabric, coordinator, rounds = build_world(seed)
    trace = []
    for force, budget, completions in rounds:
        left = walk(coordinator, force=force, budget=budget)
        trace.append((left, observed(bundle, fabric, coordinator)))
        for name in completions:
            bundle.monitor.record_completion(name)
    return trace


def product(coordinator, force, budget):
    return coordinator.dispatch_staged(force=force, budget=budget)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_walk_dispatches_what_the_per_head_gate_did(seed):
    assert run(seed, product) == run(seed, reference.dispatch_staged)


def test_the_draws_cover_the_cases_that_differ():
    # The property above is only as strong as its worlds: some must gate a
    # multi-core head on a spent allowance with mocking on, and some must
    # dispatch several tasks to one endpoint in a walk with mocking off.
    spent = resynced = 0
    for seed in range(300):
        bundle, fabric, coordinator, _ = build_world(seed)
        trace = run(seed, product)
        submitted = trace[-1][1][0]
        per_endpoint = {}
        for endpoint, _, _ in submitted:
            per_endpoint[endpoint] = per_endpoint.get(endpoint, 0) + 1
        several = any(count > 1 for count in per_endpoint.values())
        waiting = any(trace[-1][1][1].values())
        if bundle.monitor.mocking_enabled and several and waiting:
            spent += 1
        if not bundle.monitor.mocking_enabled and several:
            resynced += 1
    assert spent >= 10 and resynced >= 10
