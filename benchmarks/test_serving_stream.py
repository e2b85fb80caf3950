"""Open-loop streaming serving benchmark: steady state at O(active) memory.

A continuous Poisson stream of tenant workflows (default 500 arrivals x 32
tasks; ``REPRO_BENCH_STREAM_ARRIVALS=10000`` with
``REPRO_BENCH_STREAM_TASKS=100`` reproduces the full ~1M-task regime) flows
through bounded admission into a four-endpoint federation.  Completed
tenants are retired — graph, columnar store, event bus, scheduler and
staging records released — so however long the stream runs, live state stays
O(active tenants):

* sampled at every admission: live workflow handles, live TaskStore rows and
  shared staged-callbacks never exceed the active-slot bound;
* at the end: the manager has forgotten every tenant, the data manager holds
  no per-namespace state, and the control bus is back at its baseline
  handler count;
* peak RSS growth over the whole stream stays bounded (a leak of even one
  task row per tenant would show here at the 1M-task scale).

Per-tenant event logs are folded into **incremental** SHA-256 digests (never
retained) — retaining them would itself be an O(all-time) leak.  The EDF run
is byte-deterministic across repeats, and its deadline misses never exceed
FIFO's on the same stream.
"""

import hashlib
import os
import resource

import numpy as np

from repro.engine.events import Event, expand_event
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.serving import Federation, WorkflowManager
from repro.sim.hardware import ClusterSpec, HardwareSpec
from repro.sim.network import NetworkModel
from repro.streaming import StreamingService, StreamingSpec
from repro.workloads.spec import TaskTypeSpec, make_task_type

ENDPOINTS = 4
WORKERS = 24
ARRIVALS = int(os.environ.get("REPRO_BENCH_STREAM_ARRIVALS", "500"))
TASKS_PER_WF = int(os.environ.get("REPRO_BENCH_STREAM_TASKS", "32"))
TASK_S = 2.0
MAX_ACTIVE = 12
QUEUE_LIMIT = 32
#: Offered load as a fraction of federation capacity; the inter-arrival mean
#: scales with the per-tenant task count so any size runs at the same load.
UTILIZATION = 0.85
MEAN_INTERARRIVAL_S = TASKS_PER_WF * TASK_S / (ENDPOINTS * WORKERS * UTILIZATION)

STREAM_TASK = TaskTypeSpec(name="stream_task", duration_s=TASK_S, output_mb=0.0)


def _cluster(name: str) -> ClusterSpec:
    return ClusterSpec(
        name=name,
        hardware=HardwareSpec(
            cores_per_node=WORKERS, cpu_freq_ghz=2.5, ram_gb=64, speed_factor=1.0
        ),
        num_nodes=1,
        workers_per_node=WORKERS,
        queue_delay_mean_s=0.0,
        queue_delay_std_s=0.0,
    )


class _IncrementalDigest:
    """Folds one tenant's event log into a digest without retaining it.

    Batch events are expanded to their per-task entries
    (:func:`expand_event`), the definition of the event log.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def __call__(self, event: Event) -> None:
        for entry in expand_event(event):
            self._hash.update(repr(entry).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _run(policy: str):
    names = [f"ep{i}" for i in range(ENDPOINTS)]
    setups = [
        EndpointSetup(
            name=name,
            cluster=_cluster(name),
            initial_workers=WORKERS,
            auto_scale=False,
            duration_jitter=0.0,
            execution_overhead_s=0.0,
        )
        for name in names
    ]
    network = NetworkModel.uniform(names, bandwidth_mbps=100.0, jitter=0.0, seed=0)
    env = build_simulation(
        setups, network=network, latency=ServiceLatencyModel(), seed=0
    )
    config = env.make_config(
        "DHA",
        enable_scaling=False,
        # Streaming serving takes a manager built without the placement plan.
        enable_placement_plan=False,
        profiler_update_interval_s=3600.0,
    )
    federation = Federation(config, env.fabric, transfer_backend=env.transfer_backend)
    # Unbounded-growth guard: a bounded profiler sample window, set before
    # the first observation (with no history path the federation keeps no
    # per-observation history rows).
    federation.execution_profiler.max_samples_retained = 256
    manager = WorkflowManager(federation, arbitration=policy)
    env.seed_full_knowledge(federation)
    env.seed_execution_knowledge(federation, [STREAM_TASK])
    dm = federation.data_manager
    base_handlers = federation.bus.handler_count()
    base_callbacks = len(dm._staged_callbacks)

    spec = StreamingSpec(
        mean_interarrival_s=MEAN_INTERARRIVAL_S,
        max_arrivals=ARRIVALS,
        queue_limit=QUEUE_LIMIT,
        max_active=MAX_ACTIVE,
        slo_choices=(60.0, 180.0, 3600.0),
        patience_s=600.0,
        window_s=120.0,
    )
    fn = make_task_type(STREAM_TASK)

    def build(handle):
        with handle:
            for _ in range(TASKS_PER_WF):
                fn()

    digests = {}
    peaks = {"handles": 0, "rows": 0, "callbacks": 0}

    def on_admit(handle):
        recorder = _IncrementalDigest()
        handle.bus.subscribe_all(recorder)
        digests[handle.workflow_id] = recorder
        live = manager.workflows()
        peaks["handles"] = max(peaks["handles"], len(live))
        peaks["rows"] = max(
            peaks["rows"], sum(len(h.engine.graph.store) for h in live)
        )
        peaks["callbacks"] = max(peaks["callbacks"], len(dm._staged_callbacks))

    service = StreamingService(
        manager,
        spec,
        arrivals_rng=np.random.default_rng(1),
        admission_rng=np.random.default_rng(2),
        builder=build,
        on_admit=on_admit,
    )
    service.install()
    manager.run(max_wall_time_s=3600.0)

    # Retirement really drained every per-tenant registry.
    assert manager.workflows() == []
    assert manager.retired_count == service.admission.admitted
    assert federation.bus.handler_count() == base_handlers
    assert len(dm._staged_callbacks) == base_callbacks
    assert not getattr(dm, "_tickets_by_task", {})
    assert not dict(dm.volume_by_namespace_mb)

    # Live footprint sampled at every admission: O(active), not O(all-time).
    slot_bound = MAX_ACTIVE + 1  # +1 for the tenant being admitted
    assert peaks["handles"] <= slot_bound
    assert peaks["rows"] <= slot_bound * TASKS_PER_WF
    assert peaks["callbacks"] <= base_callbacks + slot_bound

    payload = service.payload()
    stream_digest = hashlib.sha256()
    for wid in sorted(digests):
        stream_digest.update(wid.encode())
        stream_digest.update(digests[wid].hexdigest().encode())
    return payload, stream_digest.hexdigest(), peaks


def test_serving_stream_steady_state(benchmark):
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def comparison():
        fifo, _, _ = _run("fifo")
        edf, edf_digest, peaks = _run("edf")
        _, repeat_digest, _ = _run("edf")
        return fifo, edf, edf_digest, repeat_digest, peaks

    fifo, edf, edf_digest, repeat_digest, peaks = benchmark.pedantic(
        comparison, rounds=1, iterations=1
    )
    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_growth_mb = max(0, rss_after_kb - rss_before_kb) / 1024.0

    total_tasks = edf["completed"] * TASKS_PER_WF
    print()
    print(f"Open-loop streaming — {ARRIVALS} arrivals x {TASKS_PER_WF} tasks, "
          f"{ENDPOINTS} endpoints x {WORKERS} workers, "
          f"load {UTILIZATION:.0%} (interarrival {MEAN_INTERARRIVAL_S:.2f} s)")
    for name, payload in (("FIFO", fifo), ("EDF", edf)):
        print(f"  {name:<4} thru {payload['throughput_per_s']:.3f} wf/s  "
              f"p95 wait {payload['wait_p95_s']:7.1f} s  "
              f"miss {100.0 * payload['deadline_miss_rate']:5.1f}%  "
              f"rejected {payload['rejected']}  abandoned {payload['abandoned']}")
    print(f"  tasks completed (EDF)      : {total_tasks}")
    print(f"  peak live handles / rows   : {peaks['handles']} / {peaks['rows']}")
    print(f"  peak RSS growth            : {rss_growth_mb:.0f} MB")
    benchmark.extra_info.update(
        {
            "arrivals": ARRIVALS,
            "tasks_per_workflow": TASKS_PER_WF,
            "edf_throughput_per_s": edf["throughput_per_s"],
            "fifo_throughput_per_s": fifo["throughput_per_s"],
            "edf_miss_rate": edf["deadline_miss_rate"],
            "fifo_miss_rate": fifo["deadline_miss_rate"],
            "peak_live_rows": peaks["rows"],
            "rss_growth_mb": round(rss_growth_mb, 1),
        }
    )

    # The stream was actually served: every admitted tenant completed and
    # retired (assertions inside _run), at meaningful throughput.
    assert edf["completed"] > 0 and edf["throughput_per_s"] > 0
    # EDF never misses more deadlines than FIFO on the same stream (the
    # >=20% improvement gate at overload lives in the scenario tests).
    assert edf["deadline_miss_rate"] <= fifo["deadline_miss_rate"]
    # Equal throughput: arbitration reorders, it does not shed work.
    assert abs(edf["throughput_per_s"] - fifo["throughput_per_s"]) <= (
        0.10 * max(fifo["throughput_per_s"], 1e-9)
    )
    # Byte-determinism across repeats over every tenant's full event log.
    assert edf_digest == repeat_digest
    # O(active) memory: three full streams ran in this process; growth stays
    # bounded regardless of ARRIVALS (a per-tenant leak scales linearly).
    assert rss_growth_mb <= 500.0, f"peak RSS grew {rss_growth_mb:.0f} MB"
