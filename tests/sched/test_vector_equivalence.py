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

import dataclasses
import random

import pytest

from repro.core.dag import TaskGraph, TaskState
from repro.sched.dha import DHAScheduler
from repro.sched.heft import HEFTScheduler

from tests.profiling.test_profilers import transfer_result
from tests.sched.conftest import EndpointSpec, add_task, build_context, input_file
from tests.sched.test_dha import observe
from tests.sched.test_staging_quarantine import bundle_with_plane

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


# ------------------------------------------------- staging rows, by value
def assert_staging_rows_exact(index, context, tasks):
    """Every served staging row is the row built from scratch, cell for cell."""
    rows = index.rows(tasks, default=1.0)
    for task, row in zip(tasks, rows):
        served = index.staging_matrix[row]
        assert (served == index._staging_row(task)).all()
        for column, name in enumerate(index.endpoint_names):
            assert served[column] == context.predicted_staging_time(task, name)


@pytest.mark.parametrize("with_plane", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_shared_staging_rows_track_every_input_they_were_built_from(seed, with_plane):
    rng = random.Random(7000 + seed)
    if with_plane:
        bundle, plane = bundle_with_plane()
    else:
        bundle, plane = build_context({n: EndpointSpec() for n in "abc"}), None
    context = bundle.context
    index = context.ensure_arrays()
    names = index.endpoint_names
    files = [input_file(rng.choice([0.0, 40.0, 96.0, 250.0]), rng.choice(names)) for _ in range(4)]
    # Few file sets, several consumers of each — one of them the same files
    # in another order (the contributions are summed in file order).
    file_sets = [rng.sample(files, rng.randint(1, 3)) for _ in range(3)]
    file_sets.append(list(reversed(file_sets[0])))
    tasks = [add_task(bundle.graph, input_files=list(rng.choice(file_sets))) for _ in range(14)]
    # File-less tasks cost a predicted input volume: two of equal volume, one
    # of another, one of none.
    producers = [add_task(bundle.graph) for _ in range(2)]
    producers[0].output_files = [input_file(50.0, "a")]
    producers[1].output_files = [input_file(80.0, "b")]
    tasks += [add_task(bundle.graph, deps=[producers[0]]) for _ in range(2)]
    tasks += [add_task(bundle.graph, deps=[producers[1]]), add_task(bundle.graph)]

    assert_staging_rows_exact(index, context, tasks)
    for _ in range(40):
        step = rng.choice(["add", "remove", "offline", "online", "transfer", "retrain", "release"])
        if step == "add":
            rng.choice(files).add_location(rng.choice(names))
        elif step == "remove":
            rng.choice(files).remove_location(rng.choice(names))
        elif step == "offline" and plane is not None:
            plane.store.mark_offline(rng.choice(names))
        elif step == "online" and plane is not None:
            plane.store.mark_online(rng.choice(names))
        elif step == "transfer":
            src, dst = rng.sample(names, 2)
            bundle.transfer_profiler.observe(
                transfer_result(src=src, dst=dst, size=96.0, duration=rng.uniform(0.5, 9.0))
            )
        elif step == "retrain":
            bundle.transfer_profiler.update_models()
        elif step == "release":
            index.release_task(rng.choice(tasks).task_id)  # its row is recycled
        assert_staging_rows_exact(index, context, rng.sample(tasks, rng.randint(1, len(tasks))))
    assert_staging_rows_exact(index, context, tasks)
    assert index.staging_rows_reused > 0
    assert set(index._stag_inputs) <= set(index._rows.values())  # live rows only


def test_consumers_of_one_file_set_build_one_row_per_location_generation():
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec(), "c": EndpointSpec()})
    context = bundle.context
    index = context.ensure_arrays()
    file_a, file_b = input_file(100.0, "a"), input_file(200.0, "b")
    consumers = [add_task(bundle.graph, input_files=[file_a, file_b]) for _ in range(9)]
    other = add_task(bundle.graph, input_files=[file_b])
    producer = add_task(bundle.graph)
    producer.output_files = [input_file(64.0, "a")]
    waiting = [add_task(bundle.graph, deps=[producer]) for _ in range(5)]
    tasks = consumers + [other] + waiting

    assert_staging_rows_exact(index, context, tasks)
    # One row per distinct value: the pair of files, file_b alone, 64 MB.
    assert (index.staging_rows_built, index.staging_rows_reused) == (3, 12)

    file_a.add_location("c")  # the nine consumers' key moves, the others' rows stand
    assert_staging_rows_exact(index, context, tasks)
    assert (index.staging_rows_built, index.staging_rows_reused) == (4, 20)

    # A transfer observation on an untrained pair moves every transfer
    # prediction: both tables start over.
    bundle.transfer_profiler.observe(transfer_result(src="a", dst="b", size=96.0, duration=3.0))
    assert_staging_rows_exact(index, context, tasks)
    assert (index.staging_rows_built, index.staging_rows_reused) == (7, 32)

    for task in tasks:
        index.release_task(task.task_id)
    assert not index._stag_inputs


def test_two_tenants_indexes_evaluate_the_forest_once_per_value():
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec(cores=40, freq=2.4, ram=192.0)})
    for duration in (20.0, 35.0, 50.0):
        observe(bundle, "generic_work", "a", duration, HW)
    profiler = bundle.execution_profiler
    profiler.update_models(force=True)
    # One federation (monitor, profilers, data manager), one graph and one
    # PredictionIndex per tenant.
    tenants = [bundle.context, dataclasses.replace(bundle.context, graph=TaskGraph())]
    assert tenants[0].execution_profiler is tenants[1].execution_profiler
    sizes = [10.0, 10.0, 96.0, 10.0, 96.0]
    workloads = [
        [add_task(context.graph, input_files=[input_file(size, "a")]) for size in sizes]
        for context in tenants
    ]

    def exec_rows_match_scalar(context, tasks):
        index = context.ensure_arrays()
        for task, row in zip(tasks, index.rows(tasks, default=1.0)):
            for column, name in enumerate(index.endpoint_names):
                assert index.exec_matrix[row, column] == context.predicted_execution_time(
                    task, name
                )

    for context, tasks in zip(tenants, workloads):
        exec_rows_match_scalar(context, tasks)
    assert tenants[0].arrays is not tenants[1].arrays
    # Ten rows asked, two distinct (function, stamp, hardware, input_mb).
    assert (profiler.rows_computed, profiler.rows_reused) == (2, 8)

    # A retrain moves the function's stamp: each value is evaluated once more,
    # by whichever tenant asks first.
    observe(bundle, "generic_work", "b", 80.0, (40.0, 2.4, 192.0))
    profiler.update_models()
    for context, tasks in zip(reversed(tenants), reversed(workloads)):
        exec_rows_match_scalar(context, tasks)
    assert (profiler.rows_computed, profiler.rows_reused) == (4, 16)
