"""The re-scheduling pass's bookkeeping is exact: versions, lazy rows, plan memos.

DHA's periodic pass skips itself when a fingerprint of its inputs matches the
last pass that moved nothing, orders its pool through a cached sort, resolves
a task's prediction rows only once the pass examines it, and derives its plan
steering (input roots, root masks) once per plan object.
``tests/reference/dha_scalar.py`` keeps the bookkeeping this replaced — a
tuple over every pending task's id and target, a lambda-keyed sort cached by
id tuple, roots re-derived per task — inside ``ReferenceDHAScheduler``.

Over random operation sequences (placements, endpoint-pinned placements,
re-targets through the engine and bare ones, dispatches, completions, staging
failures and re-placement, capacity slices, plan swaps, profiler refits,
replica moves) every pass asserts that:

* the engine's undispatched index holds exactly the SCHEDULED / STAGING /
  STAGED rows, and its candidate tuple is the parent's candidate list;
* the product's fingerprint moves whenever the parent's tuple would;
* the cached order equals the parent's sort;
* the product's moves equal the reference's, and its claims (the task
  store's count) the reference's hand-kept table.
"""

import random
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import TaskState, state_codes
from repro.dataplane.prefetch import Prefetcher
from repro.engine.events import TaskPlaced
from repro.engine.periodic import PeriodicCoordinator
from repro.engine.state import TaskIndex
from repro.placement.plan import PlacementPlan
from repro.sched import vector
from repro.sched.dha import DHAScheduler
from tests.reference.dha_scalar import ReferenceDHAScheduler
from tests.sched.conftest import EndpointSpec, add_task, build_context, input_file
from tests.sched.test_dha import observe

NAMES = ("a", "b", "c", "d")
FILE_COUNT = 4
PENDING_STATES = (TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED)
_PENDING = state_codes(*PENDING_STATES)


def endpoints():
    return {
        "a": EndpointSpec(workers=2, busy=1, speed=1.2),
        "b": EndpointSpec(workers=4),
        "c": EndpointSpec(workers=3, busy=2, speed=1.4),
        "d": EndpointSpec(workers=1),
    }


def make_plan(warm, roots, generation):
    return PlacementPlan(
        generation=generation,
        solved_at=float(generation),
        warm_endpoints=tuple(sorted(warm)),
        replica_roots=dict(roots),
    )


class World:
    """One task graph driven like the engine drives it, scheduled by the
    product (through the engine's periodic coordinator) and by the
    reference side by side."""

    def __init__(self):
        self.bundle = bundle = build_context(endpoints())
        self.context = bundle.context
        self.graph = bundle.graph
        self.store = bundle.graph.store
        self.index = TaskIndex()
        self.files = [
            input_file(40.0 * (i + 1), NAMES[i % len(NAMES)]) for i in range(FILE_COUNT)
        ]
        self.plan = None
        self.generation = 0
        self.product = DHAScheduler()
        self.reference = ReferenceDHAScheduler()
        for scheduler in (self.product, self.reference):
            scheduler.initialize(self.context)
            scheduler.plan_provider = lambda: self.plan
        self.tasks = []
        self.periodic = PeriodicCoordinator(
            SimpleNamespace(
                index=self.index,
                graph=self.graph,
                scheduler=self.product,
                clock=bundle.kernel.clock,
                metrics=SimpleNamespace(
                    record_scheduling_overhead=lambda *args: None,
                    record_reschedule=lambda: None,
                ),
                bus=SimpleNamespace(publish=self.placed),
            )
        )
        self.last = None
        #: Passes offered a non-empty pool, passes that ran, tasks moved.
        self.passes = self.runs = self.moves = 0
        run = self.product._reschedule_pass

        def counted(*args):
            self.runs += 1
            return run(*args)

        self.product._reschedule_pass = counted

    # ------------------------------------------------------------ engine
    def placed(self, event):
        """``StagingCoordinator.begin_staging``, and the reference told."""
        store, row = self.store, event.task._row
        store.set_endpoint(row, event.endpoint)
        store.set_state(row, TaskState.SCHEDULED)
        self.index.mark_undispatched(event.task)
        store.set_state(row, TaskState.STAGING)
        self.reference.note_placed(event.task_id, event.endpoint)

    def both(self, method, *args):
        for scheduler in (self.product, self.reference):
            getattr(scheduler, method)(*args)

    def pick(self, states, choice, undispatched=False):
        pool = self.index.undispatched_tasks() if undispatched else self.tasks
        pool = [t for t in pool if self.store.state[t._row] in states]
        return pool[choice % len(pool)] if pool else None

    # ---------------------------------------------------------------- ops
    def apply(self, op):
        kind, a, b = op
        store, now = self.store, self.bundle.kernel.clock.now
        if kind == "add":
            files = [self.files[i] for i in range(FILE_COUNT) if a >> i & 1]
            deps = [self.tasks[b % len(self.tasks)]] if self.tasks and b % 3 == 0 else []
            task = add_task(self.graph, deps=deps, input_files=files)
            self.tasks.append(task)
            self.both("on_tasks_added", [task])
        elif kind == "place":
            ready = [t for t in self.tasks if t.state == TaskState.READY]
            ready = ready[a % 3:] if ready else ready
            placements = self.product.schedule(ready)
            assert placements == self.reference.schedule(ready)
            for placement in placements:
                task = self.graph.get(placement.task_id)
                self.placed(
                    TaskPlaced(time=now, task=task, task_id=task.task_id, name=task.name,
                               endpoint=placement.endpoint)
                )
        elif kind == "staged":
            task = self.pick(state_codes(TaskState.STAGING), a, undispatched=True)
            if task is not None:
                store.set_state(task._row, TaskState.STAGED)
        elif kind == "dispatch":
            task = self.pick(_PENDING, a, undispatched=True)
            if task is not None:
                endpoint = task.assigned_endpoint
                store.set_state(task._row, TaskState.DISPATCHED)
                self.index.clear_undispatched(task.task_id)
                self.bundle.monitor.record_dispatch(endpoint)
                self.reference.note_left(task.task_id)
        elif kind == "complete":
            task = self.pick(state_codes(TaskState.DISPATCHED), a)
            if task is not None:
                self.bundle.monitor.record_completion(task.assigned_endpoint)
                self.graph.mark_completed(task)
        elif kind == "retry":
            # An execution failure re-placed (the failure ladder's publish).
            task = self.pick(state_codes(TaskState.DISPATCHED), a)
            if task is not None:
                self.placed(
                    TaskPlaced(time=now, task=task, task_id=task.task_id, name=task.name,
                               endpoint=NAMES[b % len(NAMES)])
                )
        elif kind == "stage_fail":
            task = self.pick(_PENDING, a, undispatched=True)
            if task is not None:
                self.index.clear_undispatched(task.task_id)
                self.context.release_task(task.task_id)
                self.graph.set_state(task, TaskState.FAILED, now=now)
                self.reference.note_left(task.task_id)
        elif kind == "retarget":
            task = self.pick(_PENDING, a, undispatched=True)
            if task is not None:
                new = NAMES[b % len(NAMES)]
                if b % 2:
                    # The crash path: the failure coordinator re-places it.
                    self.placed(
                        TaskPlaced(time=now, task=task, task_id=task.task_id, name=task.name,
                                   endpoint=new)
                    )
                else:
                    # A bare target change: the claim follows the task, no
                    # other version moves.
                    task.assigned_endpoint = new
                    self.reference.note_placed(task.task_id, new)
        elif kind == "pin":
            # An endpoint-pinned task placed without the scheduler.
            task = self.pick(state_codes(TaskState.READY), a)
            if task is not None:
                self.placed(
                    TaskPlaced(time=now, task=task, task_id=task.task_id, name=task.name,
                               endpoint=NAMES[b % len(NAMES)])
                )
        elif kind == "slice":
            capacity = None if a % 4 == 0 else {n: (a >> i) % 3 for i, n in enumerate(NAMES)}
            self.both("set_capacity_slice", capacity)
        elif kind == "plan":
            if a % 5 == 0:
                self.plan = None
            else:
                self.generation += 1
                warm = [n for i, n in enumerate(NAMES) if a >> i & 1]
                roots = {
                    f.file_id: NAMES[(b + i) % len(NAMES)]
                    for i, f in enumerate(self.files)
                    if b >> i & 1
                }
                self.plan = make_plan(warm, roots, self.generation)
        elif kind == "refit":
            name = NAMES[a % len(NAMES)]
            spec = self.bundle.statuses[name]
            observe(self.bundle, "generic_work", name, 5.0 + b, (spec.cores, spec.freq, spec.ram))
            self.bundle.execution_profiler.update_models(force=True)
        elif kind == "capacity":
            name = NAMES[a % len(NAMES)]
            if b % 2:
                self.bundle.monitor.record_dispatch(name)
            elif self.bundle.monitor.mock(name).busy_workers > 0:
                self.bundle.monitor.record_completion(name)
        elif kind == "replica":
            self.files[a % FILE_COUNT].add_location(NAMES[b % len(NAMES)])
        elif kind == "pass":
            self.check_pass()

    # --------------------------------------------------------------- pass
    def check_pass(self):
        context, product, reference = self.context, self.product, self.reference
        expected = self.index.undispatched_tasks()
        assert sorted(t.task_id for t in expected) == sorted(
            t.task_id for t in self.graph.in_state(*PENDING_STATES)
        )
        parent_fingerprint = reference._reschedule_fingerprint(context, expected)
        parent_order = reference._ordered_by_priority(expected, "reschedule")
        reference_moves = reference.reschedule(expected)

        seen = []
        offer = product.reschedule

        def spy(pending):
            seen.append((pending, product._reschedule_fingerprint(context, pending)))
            moves = offer(pending)
            seen.append(moves)
            return moves

        product.reschedule = spy
        try:
            self.periodic.run_rescheduling()
        finally:
            del product.reschedule

        if expected:
            (pending, fingerprint), moves = seen
            assert list(pending) == expected
            assert product._ordered_by_priority(pending, "reschedule") == parent_order
            assert moves == reference_moves
            if self.last is not None and parent_fingerprint != self.last[0]:
                assert fingerprint != self.last[1]
            self.last = (parent_fingerprint, fingerprint)
            self.passes += 1
            self.moves += len(moves)
        else:
            assert not seen and reference_moves == []
            self.last = None
        assert [product.claimed(name) for name in NAMES] == [
            reference.claimed(name) for name in NAMES
        ]


KINDS = (
    "add", "add", "place", "place", "staged", "dispatch", "complete", "retry", "stage_fail",
    "retarget", "retarget", "pin", "slice", "plan", "refit", "capacity", "capacity",
    "replica", "pass", "pass", "pass",
)
OPS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 15), st.integers(0, 15)),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(OPS)
def test_versioned_pass_matches_the_tuple_fingerprinted_reference(ops):
    world = World()
    for _ in range(6):
        world.apply(("add", 0, 1))
    for op in ops:
        world.apply(op)
        world.apply(("pass", 0, 0))


def test_random_sequences_exercise_moves_and_skips():
    """The property above is not vacuous: its operation mix produces passes
    that move tasks and passes the fingerprint skips."""
    rng = random.Random(7)
    moved = skipped = 0
    for _ in range(20):
        world = World()
        for _ in range(6):
            world.apply(("add", 0, 1))
        for _ in range(60):
            world.apply((rng.choice(KINDS), rng.randrange(16), rng.randrange(16)))
            world.apply(("pass", 0, 0))
        moved += world.moves
        skipped += world.passes - world.runs
    assert moved > 0 and skipped > 0


# --------------------------------------------------------- fingerprint
def staged_on(bundle, scheduler, endpoint, count=1, files=()):
    tasks = [add_task(bundle.graph, input_files=files) for _ in range(count)]
    scheduler.on_workflow_submitted(tasks)
    for task in tasks:
        task.assigned_endpoint = endpoint
        bundle.graph.set_state(task, TaskState.STAGED)
    return tasks


def test_a_bare_target_change_reopens_a_noop_pass():
    bundle = build_context({"current": EndpointSpec(workers=4), "other": EndpointSpec(workers=4)})
    scheduler = DHAScheduler()
    scheduler.initialize(bundle.context)
    task = staged_on(bundle, scheduler, "current")[0]
    assert scheduler.reschedule((task,)) == []
    noop = scheduler._resched_noop_fingerprint
    task.assigned_endpoint = "other"  # the store's version moves, nothing else
    assert scheduler._reschedule_fingerprint(bundle.context, (task,)) != noop


def test_an_unchanged_pool_is_recognised_by_identity():
    bundle = build_context({"current": EndpointSpec(workers=4), "other": EndpointSpec(workers=4)})
    scheduler = DHAScheduler()
    scheduler.initialize(bundle.context)
    pool = tuple(staged_on(bundle, scheduler, "current", count=3))
    assert scheduler.reschedule(pool) == []
    assert scheduler._resched_noop_fingerprint[0] is pool
    sorts = scheduler.sort_count
    assert scheduler.reschedule(pool) == []
    assert scheduler.reschedule(list(pool)) == []  # equal by value too
    assert scheduler.reschedule(pool[:2]) == []  # a different pool is a new pass
    assert scheduler.sort_count == sorts + 1


# ------------------------------------------------------------ lazy rows
def test_a_pass_fills_rows_only_for_the_tasks_it_examines(monkeypatch):
    bundle = build_context(
        {"busy": EndpointSpec(workers=1, busy=1), "idle": EndpointSpec(workers=3, speed=1.5)}
    )
    scheduler = DHAScheduler()
    scheduler.initialize(bundle.context)
    hot = input_file(80.0, "busy")
    startable = staged_on(bundle, scheduler, "idle", count=2)
    stuck = staged_on(bundle, scheduler, "busy", count=8, files=[hot])
    index = bundle.context.ensure_arrays()

    requested = []
    rows = vector.PredictionIndex.rows

    def counted(self, tasks, default):
        requested.append(tuple(t.task_id for t in tasks))
        return rows(self, tasks, default)

    monkeypatch.setattr(vector.PredictionIndex, "rows", counted)
    served = index.rows_served
    moves = scheduler.reschedule(startable + stuck)

    # "idle" has 3 workers and 2 claims: one spare slot, so exactly one of
    # the stuck tasks is examined (and moved) before the walk breaks.
    assert len(moves) == 1
    examined = [t.task_id for t in scheduler._ordered_by_priority(startable + stuck, "reschedule")
                if t in stuck][:1]
    assert requested == [()] + [(task_id,) for task_id in examined]
    assert index.rows_served - served == 1

    # Every row the pass read is what a fresh index computes.
    fresh = vector.PredictionIndex(bundle.context)
    for task_id in examined:
        task = bundle.graph.get(task_id)
        row = index._rows[task_id]
        fresh_row = fresh.rows((task,), scheduler.default_execution_time_s)[0]
        assert np.array_equal(index.exec_matrix[row], fresh.exec_matrix[fresh_row])
        assert np.array_equal(index.staging_matrix[row], fresh._staging_row(task))


# ----------------------------------------------------------- plan memos
def test_input_roots_and_masks_follow_the_plan_object_and_the_inputs():
    bundle = build_context({name: EndpointSpec() for name in NAMES})
    scheduler = DHAScheduler()
    scheduler.initialize(bundle.context)
    names = bundle.context.ensure_arrays().endpoint_names
    x, y = input_file(100.0, "a"), input_file(50.0, "b")
    task = add_task(bundle.graph, input_files=[x])

    first = make_plan("abc", {x.file_id: "b", y.file_id: "c"}, 1)
    assert scheduler._input_roots(first, task) == {"b"}
    masks = scheduler._root_masks(first, frozenset({"b"}), names)
    assert masks[0].tolist() == [False, True, False, False]
    assert scheduler._root_masks(first, frozenset({"b"}), names) is masks  # derived once
    assert scheduler._selection_mask(first, task, names, scheduler._plan_masks(first, names)[2]) is masks[1]

    # A new plan object drops both memos, even with the same generation.
    second = make_plan("abc", {x.file_id: "c"}, 1)
    assert scheduler._input_roots(second, task) == {"c"}
    assert scheduler._root_masks(second, frozenset({"b"}), names) is not masks
    assert scheduler._root_masks(second, frozenset({"c"}), names)[0].tolist() == [
        False, False, True, False,
    ]

    # Changing the task's inputs changes its roots under the same plan.
    task.input_files.append(y)
    assert scheduler._input_roots(first, task) == {"b", "c"}
    assert scheduler._input_roots(second, task) == {"c"}
    task.input_files.clear()
    assert scheduler._input_roots(first, task) == frozenset()


def test_prefetch_guess_follows_the_plan_object_and_the_inputs():
    bundle = build_context({name: EndpointSpec() for name in NAMES})
    holder = SimpleNamespace(plan=None)
    prefetcher = Prefetcher(bundle.data_manager, bundle.graph, plan_provider=lambda: holder.plan)
    small, large, twin = input_file(10.0, "a"), input_file(90.0, "b"), input_file(90.0, "c")
    task = add_task(bundle.graph, input_files=[small, large])
    assert prefetcher._plan_root_guess(task) is None

    holder.plan = make_plan("", {small.file_id: "a", large.file_id: "d"}, 1)
    assert prefetcher._plan_root_guess(task) == "d"  # the largest rooted input
    holder.plan = make_plan("", {small.file_id: "a"}, 2)
    assert prefetcher._plan_root_guess(task) == "a"  # only the small one is rooted
    holder.plan = make_plan("", {large.file_id: "d", twin.file_id: "b"}, 3)
    task.input_files.append(twin)
    # Equal sizes: the smaller file id wins, whatever the input order.
    expected = "d" if large.file_id < twin.file_id else "b"
    assert prefetcher._plan_root_guess(task) == expected
    task.input_files.reverse()
    assert prefetcher._plan_root_guess(task) == expected
