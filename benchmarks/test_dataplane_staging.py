"""Data-plane staging benchmark: pipelined prefetch vs the FIFO baseline.

A data-heavy iterative workflow — 10 000 files across 32 endpoints — where
every wave's compute is gated on the previous wave's results (the BSP shape
of iterative scientific apps):

* 5 000 *producer* tasks emit 48 MB outputs, pinned round-robin across the
  federation;
* a chain of *gate* tasks separates the waves (each gate reads the previous
  wave's results);
* 5 000 *consumer* tasks each read one producer output from a different
  endpoint (a per-wave permutation, so every wave puts exactly one transfer
  on each link) and emit a 10 MB result.

Under the published (FIFO) staging policy a consumer's input only starts
moving once the gate completes, so every wave pays gate + staging + execute
in sequence.
The data plane's prefetcher starts the same transfers when the gate is
*dispatched*, hiding staging inside the gate's execution — the
compute/transfer overlap the paper motivates — and must cut the end-to-end
makespan by at least 20% while moving the same bytes and completing the
same tasks.

The data-plane run also gets per-endpoint storage budgets (~2.5 GB against
a ~9 GB unbounded peak): the replica store's eviction + output lifecycle
must keep peak usage within budget (one in-flight admission of tolerance)
without ever hitting unevictable overflow.
"""

import os

from repro.core.client import ENDPOINT_HINT_KWARG
from repro.core.functions import set_current_client
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.sim.hardware import ClusterSpec, HardwareSpec
from repro.sim.network import NetworkModel
from repro.workloads.spec import TaskTypeSpec, make_task_type

ENDPOINTS = 32
WORKERS = 8
#: Producer/consumer pairs; 2 files each -> 10k files at the default.
UNITS = int(os.environ.get("REPRO_BENCH_DATAPLANE_UNITS", "5000"))
#: Consumers per wave == endpoints, so each wave is one transfer per link.
WAVE = ENDPOINTS
OUT_MB = 48.0
CONSUMER_OUT_MB = 10.0
GATE_S = 6.0
SHORT_S = 0.3
BANDWIDTH_MBPS = 25.0
STORAGE_GB = 2.5

PRODUCE = TaskTypeSpec(name="produce", duration_s=SHORT_S, output_mb=OUT_MB)
GATE = TaskTypeSpec(name="gate", duration_s=GATE_S, output_mb=0.0)
CONSUME = TaskTypeSpec(name="consume", duration_s=SHORT_S, output_mb=CONSUMER_OUT_MB)


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


def _build_client(dataplane: bool, storage_gb=None):
    names = [f"ep{i:02d}" for i in range(ENDPOINTS)]
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
    network = NetworkModel.uniform(names, bandwidth_mbps=BANDWIDTH_MBPS, jitter=0.0, seed=0)
    latency = ServiceLatencyModel(
        submit_latency_s=0.001,
        dispatch_latency_s=0.01,
        result_poll_latency_s=0.01,
        endpoint_overhead_s=0.0,
        status_refresh_interval_s=60.0,
    )
    env = build_simulation(setups, network=network, latency=latency, seed=0)
    config = env.make_config(
        "DHA",
        profiler_update_interval_s=3600.0,
        enable_dataplane=dataplane,
        storage_capacity_gb=storage_gb,
    )
    client = env.make_client(config)
    env.seed_full_knowledge(client.federation)
    env.seed_execution_knowledge(client.federation, [PRODUCE, GATE, CONSUME])
    return client, names


def _submit_waved_pipeline(client, names):
    produce = make_task_type(PRODUCE)
    gate_fn = make_task_type(GATE)
    consume = make_task_type(CONSUME)
    n = len(names)
    with client:
        prev_wave = []
        prev_gate = None
        unit = 0
        wave_idx = 0
        while unit < UNITS:
            gate = gate_fn(*prev_wave)
            prev_wave = []
            # A per-wave shift makes (src, dst) a permutation: one transfer
            # per link per wave, so staging latency (startup + size/bw) is
            # what the baseline pays, not link saturation.
            shift = 1 + (wave_idx % (n - 1))
            for j in range(min(WAVE, UNITS - unit)):
                src = names[j % n]
                dst = names[(j + shift) % n]
                producer_args = (prev_gate,) if prev_gate is not None else ()
                out = produce(*producer_args, **{ENDPOINT_HINT_KWARG: src})
                result = consume(out, gate, **{ENDPOINT_HINT_KWARG: dst})
                prev_wave.append(result)
                unit += 1
            prev_gate = gate
            wave_idx += 1


def _run(dataplane: bool, storage_gb=None):
    set_current_client(None)
    client, names = _build_client(dataplane, storage_gb)
    try:
        _submit_waved_pipeline(client, names)
        client.run()
    finally:
        set_current_client(None)
    summary = client.summary()
    return client, summary


def test_dataplane_staging_pipeline(benchmark):
    def comparison():
        fifo_client, fifo = _run(dataplane=False)
        plane_client, plane = _run(dataplane=True, storage_gb=STORAGE_GB)
        return fifo_client, fifo, plane_client, plane

    fifo_client, fifo, plane_client, plane = benchmark.pedantic(
        comparison, rounds=1, iterations=1
    )

    total_tasks = len(plane_client.graph)
    improvement = 1.0 - plane.makespan_s / fifo.makespan_s
    stats = plane_client.data_manager.stats_dict()
    store = plane_client.data_manager.store
    peak_mb = max(store.peak_usage_mb.values())
    budget_mb = STORAGE_GB * 1024.0

    print()
    print("Data-plane staging pipeline — 10k files x 32 endpoints, waved DAG")
    print(f"  tasks                  : {total_tasks}")
    print(f"  FIFO makespan (sim)    : {fifo.makespan_s:.1f} s")
    print(f"  data-plane makespan    : {plane.makespan_s:.1f} s  ({improvement:.1%} faster)")
    print(f"  bytes moved            : {plane.transfer_volume_gb:.1f} GB (both paths)")
    print(f"  prefetches issued      : {stats['prefetch_issued']} "
          f"(usefulness {stats['prefetch_usefulness']:.0%})")
    print(f"  evictions              : {stats['evictions']} ({stats['evicted_mb'] / 1024:.1f} GB)")
    print(f"  peak storage use       : {peak_mb / 1024:.2f} GB (budget {STORAGE_GB} GB/endpoint)")
    benchmark.extra_info.update(
        {
            "improvement": round(improvement, 4),
            "fifo_makespan_s": round(fifo.makespan_s, 1),
            "plane_makespan_s": round(plane.makespan_s, 1),
            "prefetch_usefulness": stats["prefetch_usefulness"],
            "evictions": stats["evictions"],
            "peak_storage_mb": round(peak_mb, 1),
        }
    )

    # Identical task outcomes on both paths.
    assert fifo.completed_tasks == plane.completed_tasks == total_tasks
    assert fifo.failed_tasks == 0 and plane.failed_tasks == 0
    # Same data volume: the overlap comes from *when* transfers run, not from
    # moving less (multi-source has nothing cheaper in a uniform network).
    assert abs(fifo.transfer_volume_gb - plane.transfer_volume_gb) < 1e-6

    # The headline gate: pipelined prefetching cuts the makespan by >= 20%.
    assert improvement >= 0.20, f"data plane improved makespan only {improvement:.1%}"
    # The speculation actually fed demand (no blind prefetch storm).
    assert stats["prefetch_usefulness"] >= 0.9

    # Capacity pressure stays within budget: eviction + output lifecycle keep
    # every endpoint at most one in-flight admission over its budget, and the
    # unevictable set (pinned + live sole replicas) never outgrew it.
    assert stats["evictions"] > 0
    assert peak_mb <= budget_mb + OUT_MB
    assert store.peak_overflow_mb == 0.0
