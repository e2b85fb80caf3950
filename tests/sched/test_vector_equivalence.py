"""Property-style equivalence: the vectorized schedulers are bit-identical.

The array-backed hot path of DHA and HEFT must produce *byte-identical*
decisions to the scalar reference implementation — same priorities/ranks,
same placement sequences (including the estimated-finish diagnostics), same
re-scheduling moves — across randomized DAG shapes, endpoint topologies and
profiler knowledge regimes (unknown functions, warm-up sample means, trained
forests).  Equality is asserted exactly, never approximately: one ULP of
drift in a finish-time estimate can flip an argmin tie and diverge a whole
scenario.
"""

import random

import pytest

from repro.core.dag import TaskState
from repro.sched.dha import DHAScheduler
from repro.sched.heft import HEFTScheduler

from tests.sched.conftest import EndpointSpec, add_task, build_context, input_file
from tests.sched.test_dha import observe

HW = (24.0, 2.6, 64.0)


def random_bundle(rng: random.Random):
    """A randomized endpoint topology plus mixed profiler knowledge."""
    endpoints = {
        f"ep{i}": EndpointSpec(
            workers=rng.randint(1, 8),
            busy=rng.randint(0, 3),
            pending=rng.randint(0, 4),
            cores=rng.choice([8, 16, 24, 40]),
            freq=rng.choice([2.1, 2.5, 3.0]),
            ram=rng.choice([32.0, 64.0, 192.0]),
            speed=rng.choice([0.8, 1.0, 1.4]),
        )
        for i in range(rng.randint(2, 6))
    }
    bundle = build_context(endpoints)
    for _ in range(rng.randint(0, 8)):
        observe(bundle, "generic_work", rng.choice(list(endpoints)), rng.uniform(5, 120), HW)
    if rng.random() < 0.5:
        # Half the trials run on a trained random forest, half on the
        # warm-up sample-mean predictor (or, with no observations, on the
        # speed-factor fallback).
        bundle.execution_profiler.update_models(force=True)
    return bundle, list(endpoints)


def random_dag(bundle, names, rng: random.Random):
    """A random DAG; ~30% of tasks carry an input file pinned to a site."""
    tasks = []
    for _ in range(rng.randint(10, 60)):
        deps = rng.sample(tasks, min(len(tasks), rng.randint(0, 3))) if tasks else []
        files = (
            [input_file(rng.uniform(0.0, 500.0), rng.choice(names))]
            if rng.random() < 0.3
            else []
        )
        tasks.append(add_task(bundle.graph, deps=deps, input_files=files))
    return tasks


@pytest.mark.parametrize("seed", range(12))
def test_dha_vector_matches_scalar(seed):
    rng = random.Random(seed)
    bundle, names = random_bundle(rng)
    tasks = random_dag(bundle, names, rng)

    scalar = DHAScheduler(vectorized=False)
    vector = DHAScheduler(vectorized=True)
    scalar.initialize(bundle.context)
    vector.initialize(bundle.context)
    assert not scalar._vector_ready() and vector._vector_ready()

    scalar.on_workflow_submitted(tasks)
    vector.on_workflow_submitted(tasks)
    for task in tasks:
        assert scalar.priority(task.task_id) == vector.priority(task.task_id)

    ready = [t for t in tasks if t.state == TaskState.READY]
    placed_scalar = scalar.schedule(ready)
    placed_vector = vector.schedule(ready)
    assert placed_scalar == placed_vector  # exact, including estimated_finish_s

    # Stage the placements and churn the mocked state, then compare the
    # re-scheduling moves (the delay-mechanism pool the paper steals from).
    for placement in placed_scalar:
        task = bundle.graph.get(placement.task_id)
        task.assigned_endpoint = placement.endpoint
        bundle.graph.set_state(task.task_id, TaskState.STAGED)
    for name in names[: rng.randint(1, len(names))]:
        for _ in range(rng.randint(0, 4)):
            bundle.monitor.record_dispatch(name)
    moves_scalar = scalar.reschedule(ready)
    moves_vector = vector.reschedule(ready)
    assert moves_scalar == moves_vector

    # With nothing changed since a no-move pass, both skip identically.
    if not moves_scalar:
        assert scalar.reschedule(ready) == vector.reschedule(ready) == []


@pytest.mark.parametrize("seed", range(12))
def test_heft_vector_matches_scalar(seed):
    rng = random.Random(1000 + seed)
    bundle, names = random_bundle(rng)
    tasks = random_dag(bundle, names, rng)

    scalar = HEFTScheduler(vectorized=False)
    vector = HEFTScheduler(vectorized=True)
    scalar.initialize(bundle.context)
    vector.initialize(bundle.context)

    scalar.on_workflow_submitted(tasks)
    vector.on_workflow_submitted(tasks)
    assert scalar._ranks == vector._ranks  # exact float equality
    assert scalar.assignment() == vector.assignment()
    assert scalar._endpoint_ready == vector._endpoint_ready

    ready = [t for t in tasks if t.state == TaskState.READY]
    assert scalar.schedule(ready) == vector.schedule(ready)


def test_vector_falls_back_when_mocking_disabled():
    # The ablation regime re-reads the (stale) service status per query;
    # arrays cannot mirror that, so the vectorized scheduler must run the
    # scalar reference there instead of silently diverging.
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
    bundle.monitor.mocking_enabled = False
    scheduler = DHAScheduler(vectorized=True)
    scheduler.initialize(bundle.context)
    assert not scheduler._vector_ready()
    task = add_task(bundle.graph)
    scheduler.on_workflow_submitted([task])
    assert scheduler.schedule([task])  # scalar path serves the decision


def test_vector_tracks_profiler_and_hardware_invalidation():
    # Matrix rows are generation-stamped: a warm-up observation (prediction
    # version) and a hardware change (hardware version) must both refill.
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
    scalar = DHAScheduler(vectorized=False)
    vector = DHAScheduler(vectorized=True)
    scalar.initialize(bundle.context)
    vector.initialize(bundle.context)
    task = add_task(bundle.graph)
    scalar.on_workflow_submitted([task])
    vector.on_workflow_submitted([task])

    observe(bundle, "generic_work", "a", 77.0, HW)  # warm-up shift
    bundle.statuses["a"].cores = 48  # hardware change picked up on sync
    bundle.monitor.synchronize(force=True)

    ready = [task]
    assert scalar.schedule(ready) == vector.schedule(ready)


def test_a_moved_file_refills_only_the_rows_that_read_it():
    # Staging rows of file-bearing tasks are stamped with their own input
    # files' location stamps: replicating file A leaves the rows of tasks
    # reading only file B (and of tasks reading no file) untouched.
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec(), "c": EndpointSpec()})
    context = bundle.context
    index = context.ensure_arrays()
    file_a, file_b = input_file(100.0, "a"), input_file(200.0, "b")
    reads_a = add_task(bundle.graph, input_files=[file_a])
    reads_b = add_task(bundle.graph, input_files=[file_b])
    reads_both = add_task(bundle.graph, input_files=[file_a, file_b])
    reads_none = add_task(bundle.graph)
    tasks = [reads_a, reads_b, reads_both, reads_none]
    width = len(index.endpoint_names)

    def staging_matches_scalar():
        rows = index.rows(tasks, default=1.0)
        for task, row in zip(tasks, rows):
            for column, name in enumerate(index.endpoint_names):
                assert index.staging_matrix[row, column] == context.predicted_staging_time(
                    task, name
                )

    staging_matches_scalar()
    filled = index.cells_filled
    index.rows(tasks, default=1.0)
    assert index.cells_filled == filled  # nothing moved, nothing refilled

    file_a.add_location("c")
    staging_matches_scalar()
    assert index.cells_filled == filled + 2 * width  # reads_a and reads_both

    # Swapping a task's inputs for other files is seen without any eager
    # invalidation: the stamps identify the files, not just their versions.
    filled = index.cells_filled
    reads_a.input_files = [file_b]
    staging_matches_scalar()
    assert index.cells_filled == filled + width
