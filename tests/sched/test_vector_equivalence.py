"""Property-style equivalence: the array schedulers are the paper's, bit for bit.

DHA and HEFT decide over dense arrays; §IV-D as written — one task, one
endpoint at a time — is the executable specification in
``tests/reference/dha_scalar.py``.  The product must produce *byte-identical*
decisions to it — same priorities/ranks, same placement sequences (including
the estimated-finish diagnostics), same placement hints, same re-scheduling
moves — across randomized DAG shapes, endpoint topologies, profiler knowledge
regimes (unknown functions, warm-up sample means, trained forests) and both
sides of the §IV-B mocking switch.  Equality is asserted exactly, never
approximately: one ULP of drift in a finish-time estimate can flip an argmin
tie and diverge a whole scenario.
"""

import dataclasses
import random

import pytest

from repro.core.dag import TaskGraph, TaskState
from repro.faas.types import EndpointStatus
from repro.monitor.endpoint_monitor import EndpointMonitor
from repro.sched.dha import DHAScheduler
from repro.sched.heft import HEFTScheduler

from tests.profiling.test_profilers import transfer_result
from tests.reference.dha_scalar import (
    ReferenceDHAScheduler,
    ReferenceHEFTScheduler,
    predicted_execution_time,
)
from tests.sched.conftest import EndpointSpec, add_task, build_context, input_file, place
from tests.sched.test_dha import observe
from tests.sched.test_staging_quarantine import bundle_with_plane

HW = (24.0, 2.6, 64.0)
STAGED = TaskState.STAGED


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
        # Observed on the endpoint's own hardware, so a trained forest's
        # predictions move when an endpoint's hardware does.
        name = rng.choice(list(endpoints))
        spec = endpoints[name]
        hardware = (float(spec.cores), spec.freq, spec.ram)
        observe(bundle, "generic_work", name, rng.uniform(5, 120), hardware)
    if rng.random() < 0.5:
        # Half the trials run on a trained random forest, half on the
        # warm-up sample-mean predictor (or, with no observations, on the
        # speed-factor fallback).
        bundle.execution_profiler.update_models(force=True)
    return bundle, list(endpoints)


def random_dag(bundle, names, rng: random.Random, tasks=()):
    """A random DAG (grown from ``tasks``); ~30% of tasks carry an input file
    pinned to a site."""
    tasks = list(tasks)
    for _ in range(rng.randint(10, 60)):
        deps = rng.sample(tasks, min(len(tasks), rng.randint(0, 3))) if tasks else []
        files = (
            [input_file(rng.uniform(0.0, 500.0), rng.choice(names))]
            if rng.random() < 0.3
            else []
        )
        tasks.append(add_task(bundle.graph, deps=deps, input_files=files))
    return tasks


def assert_claims_match(reference, product, names):
    """The reference's hand-kept claims are the store's count."""
    assert [reference.claimed(name) for name in names] == [
        product.claimed(name) for name in names
    ]


def change_service_status(bundle, names, rng: random.Random):
    """The service's view moves: capacity everywhere, hardware at one site."""
    for name in names:
        status = bundle.statuses[name]
        status.workers = rng.randint(1, 8)
        status.busy = rng.randint(0, status.workers)
        status.pending = rng.randint(0, 4)
    bundle.statuses[rng.choice(names)].cores = rng.choice([8, 16, 24, 40, 96])


@pytest.mark.parametrize("mocking", [True, False], ids=["mocking-on", "mocking-off"])
@pytest.mark.parametrize("seed", range(12))
def test_dha_matches_the_reference(seed, mocking):
    rng = random.Random(seed)
    bundle, names = random_bundle(rng)
    tasks = random_dag(bundle, names, rng)
    bundle.monitor.mocking_enabled = mocking

    reference = ReferenceDHAScheduler()
    product = DHAScheduler()
    reference.initialize(bundle.context)
    product.initialize(bundle.context)

    reference.on_workflow_submitted(tasks)
    product.on_workflow_submitted(tasks)
    for task in tasks:
        assert reference.priority(task.task_id) == product.priority(task.task_id)

    ready = [t for t in tasks if t.state == TaskState.READY]
    # Hints under virtual claims (the prefetcher's batch model) agree and
    # claim nothing.
    for task in rng.sample(ready, min(len(ready), 6)):
        virtual = {name: rng.randint(0, 5) for name in rng.sample(names, rng.randint(0, len(names)))}
        assert reference.placement_hint(task, virtual) == product.placement_hint(task, virtual)
    assert_claims_match(reference, product, names)
    assert not product._vectors.claimed.any()

    placed_reference = reference.schedule(ready)
    placed_product = product.schedule(ready)
    assert placed_reference == placed_product  # exact, including estimated_finish_s

    # Stage the placements and churn the endpoint state, then compare the
    # re-scheduling moves (the delay-mechanism pool the paper steals from).
    for placement in placed_reference:
        place(bundle.graph, bundle.graph.get(placement.task_id), placement.endpoint, STAGED)
    assert_claims_match(reference, product, names)
    if mocking:
        for name in names[: rng.randint(1, len(names))]:
            for _ in range(rng.randint(0, 4)):
                bundle.monitor.record_dispatch(name)
    else:
        # Without the mocks a scheduler sees what the service reports, and
        # sees it on the very next decision — no synchronisation in between.
        change_service_status(bundle, names, rng)
    # The product goes first: the reference's per-query re-read of the
    # service must not be what brings the shared monitor up to date.
    moves_product = product.reschedule(ready)
    moves_reference = reference.reschedule(ready)
    assert moves_reference == moves_product
    for task in rng.sample(ready, min(len(ready), 3)):
        assert reference.placement_hint(task) == product.placement_hint(task)
    for move in moves_product:
        place(bundle.graph, bundle.graph.get(move.task_id), move.endpoint, STAGED)
    assert_claims_match(reference, product, names)

    # With nothing changed since a no-move pass, both answer identically
    # (with mocking on, by skipping the pass).
    if not moves_reference:
        assert reference.reschedule(ready) == product.reschedule(ready) == []


@pytest.mark.parametrize("seed", range(8))
def test_dha_growth_windows_match_the_reference(seed):
    """Priorities stay the reference's across growth windows whose
    predictions move in between — a re-ranked successor that held its
    parent's maximum can go down — including a ready task scheduled before
    its window is announced (the missing-priority path)."""
    rng = random.Random(3000 + seed)
    bundle, names = random_bundle(rng)
    tasks = random_dag(bundle, names, rng)
    reference = ReferenceDHAScheduler()
    product = DHAScheduler()
    reference.initialize(bundle.context)
    product.initialize(bundle.context)
    reference.on_workflow_submitted(tasks)
    product.on_workflow_submitted(tasks)
    for window in range(4):
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(names)
            spec = bundle.statuses[name]
            hardware = (float(spec.cores), spec.freq, spec.ram)
            observe(bundle, "generic_work", name, rng.uniform(0.5, 150.0), hardware)
        bundle.execution_profiler.update_models(force=True)
        grown = random_dag(bundle, names, rng, tasks)[len(tasks):]
        tasks += grown
        if window % 2:
            early = [t for t in grown if t.state == TaskState.READY][:2]
            assert product.schedule(early) == reference.schedule(early)
        product.on_tasks_added(grown)
        reference.on_tasks_added(grown)
        for task in tasks:
            assert product.priority(task.task_id) == reference.priority(task.task_id)


@pytest.mark.parametrize("mocking", [True, False], ids=["mocking-on", "mocking-off"])
@pytest.mark.parametrize("seed", range(12))
def test_heft_matches_the_reference(seed, mocking):
    rng = random.Random(1000 + seed)
    bundle, names = random_bundle(rng)
    tasks = random_dag(bundle, names, rng)
    bundle.monitor.mocking_enabled = mocking

    reference = ReferenceHEFTScheduler()
    product = HEFTScheduler()
    reference.initialize(bundle.context)
    product.initialize(bundle.context)

    def plans_match():
        assert reference._ranks == product._ranks  # exact float equality
        assert reference._assignment == product._assignment
        assert reference._endpoint_ready == product._endpoint_ready

    reference.on_workflow_submitted(tasks)
    product.on_workflow_submitted(tasks)
    plans_match()
    ready = [t for t in tasks if t.state == TaskState.READY]
    assert reference.schedule(ready) == product.schedule(ready)

    # The DAG grows after the service's view moved (seen only without mocks).
    change_service_status(bundle, names, rng)
    grown = random_dag(bundle, names, rng, tasks)[len(tasks):]
    product.on_tasks_added(grown)  # first, see the DHA property
    reference.on_tasks_added(grown)
    plans_match()


def test_mocking_off_is_served_from_the_arrays_and_equals_the_reference():
    # The ablation regime re-reads the (stale) service status per decision;
    # the arrays do the same re-read once per call, before any stamp.
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
    bundle.monitor.mocking_enabled = False
    reference, product = ReferenceDHAScheduler(), DHAScheduler()
    for scheduler in (reference, product):
        scheduler.initialize(bundle.context)
    first, second = add_task(bundle.graph), add_task(bundle.graph)
    for scheduler in (reference, product):
        scheduler.on_workflow_submitted([first, second])
    placed = product.schedule([first])
    assert placed and placed == reference.schedule([first])
    index = bundle.context.arrays
    assert index is not None and index.rows_served > 0

    # The service reports "a" saturated: the next decision avoids it although
    # no dispatch was recorded locally and no synchronisation ran.
    bundle.statuses["a"].busy, bundle.statuses["a"].pending = 4, 6
    placed = product.schedule([second])
    assert placed == reference.schedule([second])
    assert placed[0].endpoint == "b"


@pytest.mark.parametrize("scheduler_class", [DHAScheduler, HEFTScheduler])
def test_a_scheduler_without_monitored_endpoints_answers(scheduler_class, recwarn, monkeypatch):
    # Asked before any endpoint is registered, a scheduler ranks by the
    # default execution time alone and places nothing; once endpoints are
    # monitored the same instance places normally.
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
    monitor = EndpointMonitor(
        lambda name: EndpointStatus(
            endpoint=name, online=True, active_workers=4, busy_workers=0, idle_workers=4,
            pending_tasks=0, max_workers=16, cores_per_node=24, cpu_freq_ghz=2.6, ram_gb=64.0,
        ),
        bundle.kernel.clock,
    )
    context = dataclasses.replace(bundle.context, endpoint_monitor=monitor)
    monkeypatch.setattr(scheduler_class, "default_execution_time_s", 3.0)
    scheduler = scheduler_class()
    scheduler.initialize(context)
    root = add_task(bundle.graph)
    child = add_task(bundle.graph, deps=[root])

    scheduler.on_workflow_submitted([root, child])
    rank = scheduler.priority if scheduler_class is DHAScheduler else scheduler.rank
    assert (rank(child.task_id), rank(root.task_id)) == (3.0, 6.0)
    assert scheduler.schedule([root]) == []
    assert scheduler.reschedule([root]) == []
    assert scheduler.placement_hint(root) is None
    assert context.arrays is None
    assert not recwarn.list  # no division by a zero endpoint count

    for name in ("a", "b"):
        monitor.register(name)
    placed = scheduler.schedule([root])
    assert [p.task_id for p in placed] == [root.task_id]
    assert placed[0].endpoint in ("a", "b")


def test_an_endpoint_registered_after_the_index_is_built_gets_its_columns():
    # Registration is the only change of the column set: the next query
    # rebuilds the index over the grown endpoint list.
    bundle = build_context({"a": EndpointSpec(busy=4, pending=3), "b": EndpointSpec(busy=4)})
    reference, product = ReferenceDHAScheduler(), DHAScheduler()
    tasks = [add_task(bundle.graph) for _ in range(3)]
    for scheduler in (reference, product):
        scheduler.initialize(bundle.context)
        scheduler.on_workflow_submitted(tasks)
    assert product.schedule(tasks[:1]) == reference.schedule(tasks[:1])
    assert bundle.context.arrays.endpoint_names == ["a", "b"]

    bundle.statuses["c"] = EndpointSpec(workers=8)
    bundle.monitor.register("c")
    assert product.placement_hint(tasks[1]) == reference.placement_hint(tasks[1]) == "c"
    placed = product.schedule(tasks[1:])
    assert placed == reference.schedule(tasks[1:])
    assert {p.endpoint for p in placed} == {"c"}
    index = bundle.context.arrays
    assert index.endpoint_names == ["a", "b", "c"]
    rows = index.rows(tasks, product.default_execution_time_s)
    for task, row in zip(tasks, rows):
        for column, name in enumerate(index.endpoint_names):
            assert index.exec_matrix[row, column] == predicted_execution_time(
                bundle.context, task, name, product.default_execution_time_s
            )


def test_arrays_track_profiler_and_hardware_invalidation():
    # Matrix rows are generation-stamped: a warm-up observation (prediction
    # version) and a hardware change (hardware version) must both refill.
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
    reference, product = ReferenceDHAScheduler(), DHAScheduler()
    task = add_task(bundle.graph)
    for scheduler in (reference, product):
        scheduler.initialize(bundle.context)
        scheduler.on_workflow_submitted([task])

    observe(bundle, "generic_work", "a", 77.0, HW)  # warm-up shift
    bundle.statuses["a"].cores = 48  # hardware change picked up on sync
    bundle.monitor.synchronize(force=True)

    ready = [task]
    assert reference.schedule(ready) == product.schedule(ready)


# ------------------------------------------------ execution rows, by stamp
def assert_exec_rows_exact(index, context, tasks):
    """Every served execution cell is the profiler's own scalar prediction."""
    rows = index.rows(tasks, default=1.0)
    for task, row in zip(tasks, rows):
        for column, name in enumerate(index.endpoint_names):
            assert index.exec_matrix[row, column] == predicted_execution_time(
                context, task, name
            )


def _nothing(bundle, tasks):
    pass


def _warm_up_observation(bundle, tasks):
    observe(bundle, "generic_work", "a", 123.0, HW)


def _retrain(bundle, tasks):
    for _ in range(8):
        observe(bundle, "generic_work", "a", 10.0, HW)
    bundle.execution_profiler.update_models(force=True)


def _plain_sync(bundle, tasks):
    bundle.statuses["a"].busy = 2  # capacity counters only
    bundle.monitor.synchronize(force=True)


def _hardware_change(bundle, tasks):
    bundle.statuses["a"].cores = 48
    bundle.monitor.synchronize(force=True)


def _invalidate_first_task(bundle, tasks):
    bundle.context.invalidate_task(tasks[0].task_id)


@pytest.mark.parametrize(
    "event, exec_rows, staging_rows",
    [
        (_nothing, 0, 0),  # a repeated lookup is served from the matrix
        (_warm_up_observation, 3, 0),  # the sample mean moved
        (_retrain, 3, 0),
        (_plain_sync, 0, 0),  # predictions only read hardware features
        (_hardware_change, 3, 0),
        (_invalidate_first_task, 1, 1),  # that task's rows, nobody else's
    ],
)
def test_exec_rows_refill_exactly_when_a_stamp_they_carry_moved(event, exec_rows, staging_rows):
    bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
    context = bundle.context
    index = context.ensure_arrays()
    # File-bearing tasks: their staging rows do not read the execution
    # profiler, so every cell counted below is attributable.
    tasks = [add_task(bundle.graph, input_files=[input_file(40.0, "a")]) for _ in range(3)]
    for _ in range(4):
        observe(bundle, "generic_work", "a", 50.0, HW)
    width = len(index.endpoint_names)

    assert_exec_rows_exact(index, context, tasks)
    filled = index.cells_filled
    event(bundle, tasks)
    assert_exec_rows_exact(index, context, tasks)
    assert index.cells_filled == filled + (exec_rows + staging_rows) * width
    index.rows(tasks, default=1.0)
    assert index.cells_filled == filled + (exec_rows + staging_rows) * width


def test_mocking_off_sees_a_service_side_hardware_change_on_the_very_next_call():
    # With mocking disabled a scheduler sees the service's status, hardware
    # included; rows() must re-read it before it compares generation stamps,
    # or the change is served one call late.
    bundle = build_context({"a": EndpointSpec(cores=16), "b": EndpointSpec(cores=16)})
    for _ in range(6):
        observe(bundle, "generic_work", "a", 40.0, (16.0, 2.6, 64.0))
        observe(bundle, "generic_work", "a", 10.0, (96.0, 2.6, 64.0))
    bundle.execution_profiler.update_models(force=True)
    bundle.monitor.mocking_enabled = False
    context = bundle.context
    index = context.ensure_arrays()
    task = add_task(bundle.graph, input_files=[input_file(40.0, "a")])
    width = len(index.endpoint_names)

    row = index.rows([task], default=1.0)[0]
    before = float(index.exec_matrix[row, 0])
    filled = index.cells_filled

    bundle.statuses["a"].cores = 96
    row = index.rows([task], default=1.0)[0]
    after = float(index.exec_matrix[row, 0])
    assert after == predicted_execution_time(context, task, "a") < before
    assert index.cells_filled == filled + width  # one execution row
    index.rows([task], default=1.0)
    assert index.cells_filled == filled + width  # then served from the matrix


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
    # The swap goes the way the engine's does: files and size column together.
    filled = index.cells_filled
    reads_a.input_files = [file_b]
    bundle.graph.store.input_mb[reads_a._row] = sum(f.size_mb for f in reads_a.input_files)
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

    for context, tasks in zip(tenants, workloads):
        assert_exec_rows_exact(context.ensure_arrays(), context, tasks)
    assert tenants[0].arrays is not tenants[1].arrays
    # Ten rows asked, two distinct (function, stamp, hardware, input_mb).
    assert (profiler.rows_computed, profiler.rows_reused) == (2, 8)

    # A retrain moves the function's stamp: each value is evaluated once more,
    # by whichever tenant asks first.
    observe(bundle, "generic_work", "b", 80.0, (40.0, 2.4, 192.0))
    profiler.update_models()
    for context, tasks in zip(reversed(tenants), reversed(workloads)):
        assert_exec_rows_exact(context.ensure_arrays(), context, tasks)
    assert (profiler.rows_computed, profiler.rows_reused) == (4, 16)
