"""Struct-of-arrays engine core at 100k tasks: queries, delivery, memory.

Builds a real :class:`~repro.core.dag.TaskGraph` — every task a live view
over the columnar :class:`~repro.engine.store.TaskStore` — drives 100 000
tasks through a mixed lifecycle (completed / dispatched / staged / scheduled
/ ready across 16 endpoints), and times the two layers the columnar core
replaced:

* the **serving pump's observable-state refresh** — ready-set extraction,
  wait-time reduction, per-endpoint staged demand and undispatched counts —
  as array reductions versus the object-path reference (Python loops over
  ``Task`` objects), asserting identical results and a ≥10× speedup at full
  scale, and
* **transition event delivery** — one ``TasksCompleted``/``TasksReady``
  batch per 256-completion pump round (scalar-log tuples included, per the
  digest contract) versus per-task ``TaskCompleted``/``TaskReady`` publishes
  through the same :class:`~repro.engine.bus.EventBus` with the scenario
  digest recorder attached, asserting the expanded event logs are
  *byte-identical* and reporting events/sec for both paths.

Peak RSS (``ru_maxrss``) and the store's bytes-per-task land in
``extra_info``; the store must stay a bounded few hundred bytes of array
per task.  The pytest-benchmark stats of the columnar run are gated against
``benchmarks/baselines/engine-soa.json`` in CI.  Override
``REPRO_BENCH_SOA_TASKS`` / ``REPRO_BENCH_SOA_ENDPOINTS`` for quick local
runs.
"""

import os
import random
import resource
import time

from repro.core.dag import Task, TaskGraph, TaskState
from repro.engine.bus import EventBus
from repro.engine.events import (
    TaskCompleted,
    TaskReady,
    TasksCompleted,
    TasksReady,
    expand_event,
)
from repro.faas.types import TaskExecutionRecord
from repro.workloads.spec import TaskTypeSpec, make_task_type

TASK_COUNT = int(os.environ.get("REPRO_BENCH_SOA_TASKS", "100000"))
ENDPOINT_COUNT = int(os.environ.get("REPRO_BENCH_SOA_ENDPOINTS", "16"))
#: Completions folded into one batch event per pump round (the engine's
#: per-round record batch).
ROUND_SIZE = 256

SPEC = TaskTypeSpec(name="soa_bench_task", duration_s=2.0, output_mb=0.0)
BENCH_FN = make_task_type(SPEC)


def build_graph():
    """A populated graph: every write lands through the Task views."""
    endpoints = [f"site{i:03d}" for i in range(ENDPOINT_COUNT)]
    graph = TaskGraph()
    tasks = []
    for _ in range(TASK_COUNT):
        task = Task(function=BENCH_FN)
        graph.add_task(task)
        tasks.append(task)
    rng = random.Random(3)
    for i, task in enumerate(tasks):
        ts = task.timestamps
        ts.created = 0.0
        ts.ready = float(i % 100)
        task.assigned_endpoint = endpoints[i % ENDPOINT_COUNT]
        draw = rng.random()
        if draw < 0.70:
            task.state = TaskState.COMPLETED
            ts.started = ts.ready + 1.0
            ts.completed = ts.started + 2.0
        elif draw < 0.80:
            task.state = TaskState.DISPATCHED
            ts.started = ts.ready + 1.5
        elif draw < 0.85:
            task.state = TaskState.STAGED
        elif draw < 0.90:
            task.state = TaskState.SCHEDULED
        # else: left READY (the add_task default for dependency-free tasks)
    return graph, tasks


# ------------------------------------------------- observable-state refresh
def object_path_refresh(graph: TaskGraph):
    """The pre-columnar reference: Python loops over the task objects."""
    ready = [t for t in graph if t.state == TaskState.READY]
    waits = []
    for task in graph:
        ts = task.timestamps
        if ts.ready is not None and ts.started is not None:
            waits.append(max(0.0, ts.started - ts.ready))
    staged = {}
    undispatched = {}
    for task in graph:
        if task.state == TaskState.STAGED:
            ep = task.assigned_endpoint
            staged[ep] = staged.get(ep, 0) + task.cores
        if task.state in (TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED):
            ep = task.assigned_endpoint
            undispatched[ep] = undispatched.get(ep, 0) + 1
    return len(ready), waits, staged, undispatched


def columnar_refresh(graph: TaskGraph):
    """The same observables from the store's arrays."""
    store = graph.store
    ready = graph.in_state(TaskState.READY)
    waits = store.wait_times()
    return len(ready), waits, store.staged_demand(), store.undispatched_by_endpoint()


# ----------------------------------------------------------- event delivery
def make_records(tasks):
    completed = [t for t in tasks if t.state == TaskState.COMPLETED]
    return completed, {
        t.task_id: TaskExecutionRecord(
            task_id=t.task_id,
            endpoint=t.assigned_endpoint,
            function_name=t.name,
            success=True,
            submitted_at=0.0,
            started_at=1.0,
            completed_at=3.0,
        )
        for t in completed
    }


def recording_bus():
    bus = EventBus()
    log = []
    bus.subscribe_all(lambda e: log.extend(expand_event(e)))
    return bus, log


def deliver_scalar(completed, records, now: float):
    """Per-task oracle: two event publishes per completion."""
    bus, log = recording_bus()
    for task in completed:
        bus.publish(
            TaskCompleted.for_task(
                task,
                time=now,
                endpoint=task.assigned_endpoint,
                record=records[task.task_id],
            )
        )
        bus.publish(TaskReady.for_task(task, time=now))
    return log


def deliver_batched(completed, records, now: float):
    """Columnar path: one batch per transition class per pump round, the
    scalar-equivalent log entries built inline exactly as the engine does."""
    bus, log = recording_bus()
    for start in range(0, len(completed), ROUND_SIZE):
        chunk = completed[start : start + ROUND_SIZE]
        scalar_log = []
        for task in chunk:
            scalar_log.append(
                (round(now, 9), "TaskCompleted", task.name, task.assigned_endpoint, True)
            )
            scalar_log.append((round(now, 9), "TaskReady", task.name))
        bus.publish(
            TasksCompleted(
                time=now,
                count=len(chunk),
                scalar_log=tuple(scalar_log),
                tasks=tuple(chunk),
            )
        )
        bus.publish(TasksReady(time=now, count=len(chunk), tasks=tuple(chunk)))
    return log


def store_bytes_per_task(graph: TaskGraph) -> float:
    store = graph.store
    total = sum(
        getattr(store, name).nbytes
        for name in ("state", "cores", "input_mb", "priority", "endpoint")
    )
    total += sum(column.nbytes for column in store.timestamps.values())
    return total / max(1, len(store))


def test_engine_soa_scale(benchmark):
    graph, tasks = build_graph()
    completed, records = make_records(tasks)

    # Warm the object path once so both measurements run on a hot graph.
    reference = object_path_refresh(graph)

    start = time.perf_counter()
    reference = object_path_refresh(graph)
    object_refresh_s = time.perf_counter() - start

    def columnar_run():
        state = columnar_refresh(graph)
        log = deliver_batched(completed, records, now=5.0)
        return state, log

    start = time.perf_counter()
    columnar_state = columnar_refresh(graph)
    columnar_refresh_s = time.perf_counter() - start

    start = time.perf_counter()
    scalar_log = deliver_scalar(completed, records, now=5.0)
    scalar_delivery_s = time.perf_counter() - start

    # The gated benchmark run: full columnar pump (refresh + delivery).
    (columnar_state, batched_log) = benchmark.pedantic(
        columnar_run, rounds=1, iterations=1
    )
    start = time.perf_counter()
    deliver_batched(completed, records, now=5.0)
    batched_delivery_s = time.perf_counter() - start

    # Equivalence before speed: identical observables, byte-identical logs.
    assert columnar_state == reference
    assert batched_log == scalar_log

    events = 2 * len(completed)
    refresh_speedup = object_refresh_s / columnar_refresh_s
    delivery_speedup = scalar_delivery_s / batched_delivery_s
    scalar_eps = events / scalar_delivery_s
    batched_eps = events / batched_delivery_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bytes_per_task = store_bytes_per_task(graph)

    print()
    print(f"Struct-of-arrays engine core — {TASK_COUNT} tasks × {ENDPOINT_COUNT} endpoints")
    print(f"  object-path state refresh : {object_refresh_s * 1000:8.1f} ms")
    print(f"  columnar state refresh    : {columnar_refresh_s * 1000:8.1f} ms "
          f"({refresh_speedup:.1f}x)")
    print(f"  scalar event delivery     : {scalar_eps:10.0f} events/s")
    print(f"  batched event delivery    : {batched_eps:10.0f} events/s "
          f"({delivery_speedup:.1f}x)")
    print(f"  store bytes/task          : {bytes_per_task:8.1f}")
    print(f"  peak RSS                  : {peak_rss_mb:8.1f} MB")
    benchmark.extra_info["object_refresh_ms"] = round(object_refresh_s * 1000, 3)
    benchmark.extra_info["columnar_refresh_ms"] = round(columnar_refresh_s * 1000, 3)
    benchmark.extra_info["refresh_speedup"] = round(refresh_speedup, 2)
    benchmark.extra_info["scalar_events_per_s"] = round(scalar_eps)
    benchmark.extra_info["batched_events_per_s"] = round(batched_eps)
    benchmark.extra_info["delivery_speedup"] = round(delivery_speedup, 2)
    benchmark.extra_info["store_bytes_per_task"] = round(bytes_per_task, 1)
    benchmark.extra_info["peak_rss_mb"] = round(peak_rss_mb, 1)

    # Acceptance bars.  The observable-state refresh — the serving pump's
    # per-round read path — must be ≥10× the object-path reference at the
    # 100k × 16 scale (measured ≈40–60×); batched delivery must beat the
    # per-task oracle on event-layer throughput (measured ≈2.5× — bounded
    # below 10× because the digest contract keeps per-task scalar-log tuple
    # construction on the batch path).  Scaled-down local runs only
    # sanity-check lower floors.
    full_scale = TASK_COUNT >= 100_000 and ENDPOINT_COUNT >= 16
    assert refresh_speedup >= (10.0 if full_scale else 4.0), (
        f"columnar refresh only {refresh_speedup:.1f}x faster"
    )
    assert delivery_speedup >= (1.8 if full_scale else 1.2), (
        f"batched delivery only {delivery_speedup:.1f}x faster"
    )
    # The store is struct-of-arrays all the way down: a task's engine-side
    # columnar state must stay a bounded slice of flat arrays (8 timestamp
    # float64 columns + 5 scalar columns ≈ 85 bytes plus growth slack).
    assert bytes_per_task < 256, f"store grew to {bytes_per_task:.0f} bytes/task"
