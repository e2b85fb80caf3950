"""Multi-workflow serving benchmark: fair-share vs FIFO arbitration.

Eight tenants submit identical 1 000-task workflows to one shared federation
(four endpoints × 24 workers) at the same instant — the many-users regime
the ROADMAP's production north star implies.  The tasks are compute-only
(no file inputs/outputs), so both arbitration policies move exactly the
same bytes (zero) and complete exactly the same tasks; the *only* thing
arbitration changes is **who waits**:

* **FIFO** drains tenants in arrival order — the classic staircase where
  the last tenant's tasks wait ~N× longer than the first's;
* **fair-share** splits every freed worker proportionally (equal weights
  here) with a cumulative-service deficit tie-break, compressing the
  staircase to a flat line.

The headline gate: fair-share cuts the p95 across tenants of per-tenant
mean wait time by ≥ 20 % versus FIFO (measured ≈ 45 %), with identical
total transferred bytes and task outcomes, and the fair-share run is
byte-deterministic (identical per-workflow event digests across repeats).
"""

import hashlib
import os

from repro.engine.events import Event
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.metrics.collector import percentile
from repro.serving import Federation, WorkflowManager, jain_index
from repro.sim.hardware import ClusterSpec, HardwareSpec
from repro.sim.network import NetworkModel
from repro.workloads.spec import TaskTypeSpec, make_task_type

ENDPOINTS = 4
WORKERS = 24
WORKFLOWS = 8
TASKS_PER_WORKFLOW = int(os.environ.get("REPRO_BENCH_MULTIWF_TASKS", "1000"))
TASK_S = 2.0

TENANT_TASK = TaskTypeSpec(name="tenant_task", duration_s=TASK_S, output_mb=0.0)


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


class _EventLog:
    def __init__(self) -> None:
        self.entries = []

    def __call__(self, event: Event) -> None:
        self.entries.append((round(event.time, 9),) + event.describe())


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
        "DHA", enable_scaling=False, profiler_update_interval_s=3600.0
    )
    federation = Federation(config, env.fabric, transfer_backend=env.transfer_backend)
    manager = WorkflowManager(federation, arbitration=policy)
    env.seed_full_knowledge(federation)
    env.seed_execution_knowledge(federation, [TENANT_TASK])

    fn = make_task_type(TENANT_TASK)
    logs = {}
    for i in range(WORKFLOWS):
        wid = f"wf{i}"

        def build(handle):
            with handle:
                for _ in range(TASKS_PER_WORKFLOW):
                    fn()

        handle = manager.add_workflow(wid, builder=build)
        log = _EventLog()
        handle.bus.subscribe_all(log)
        logs[wid] = log
    manager.run(max_wall_time_s=600.0)
    summary = manager.summary()
    digests = {
        wid: hashlib.sha256(repr(log.entries).encode()).hexdigest()
        for wid, log in logs.items()
    }
    return summary, digests


def test_multi_workflow_fair_share(benchmark):
    def comparison():
        fifo, _ = _run("fifo")
        fair, fair_digests = _run("fair_share")
        _, repeat_digests = _run("fair_share")
        return fifo, fair, fair_digests, repeat_digests

    fifo, fair, fair_digests, repeat_digests = benchmark.pedantic(
        comparison, rounds=1, iterations=1
    )

    def tenant_waits(summary):
        return [s.wait_time_mean_s for s in summary.workflows.values()]

    fifo_p95 = percentile(tenant_waits(fifo), 0.95)
    fair_p95 = percentile(tenant_waits(fair), 0.95)
    improvement = 1.0 - fair_p95 / fifo_p95
    total = WORKFLOWS * TASKS_PER_WORKFLOW

    print()
    print(f"Multi-workflow serving — {WORKFLOWS} x {TASKS_PER_WORKFLOW} tasks, "
          f"{ENDPOINTS} endpoints x {WORKERS} workers")
    print(f"  FIFO       p95 tenant wait : {fifo_p95:8.1f} s   "
          f"Jain {jain_index(tenant_waits(fifo)):.3f}   makespan {fifo.makespan_s:.1f} s")
    print(f"  fair-share p95 tenant wait : {fair_p95:8.1f} s   "
          f"Jain {jain_index(tenant_waits(fair)):.3f}   makespan {fair.makespan_s:.1f} s")
    print(f"  p95 wait improvement       : {improvement:.1%}")
    benchmark.extra_info.update(
        {
            "fifo_p95_wait_s": round(fifo_p95, 3),
            "fair_p95_wait_s": round(fair_p95, 3),
            "improvement": round(improvement, 4),
            "fifo_jain": round(jain_index(tenant_waits(fifo)), 4),
            "fair_jain": round(jain_index(tenant_waits(fair)), 4),
        }
    )

    # Identical work either way: same completions, zero failures, and the
    # same total transferred bytes — arbitration only changes who waits.
    assert fifo.completed_tasks == fair.completed_tasks == total
    assert fifo.failed_tasks == 0 and fair.failed_tasks == 0
    assert fifo.total_transferred_mb == fair.total_transferred_mb

    # The headline gate: fair-share compresses the worst tenants' waits.
    assert improvement >= 0.20, f"fair-share improved p95 wait only {improvement:.1%}"
    # ... and evens the field (Jain's index ~1 means near-equal mean waits).
    assert jain_index(tenant_waits(fair)) > 0.99
    assert jain_index(tenant_waits(fair)) > jain_index(tenant_waits(fifo))

    # Byte-determinism: repeating the fair-share run reproduces every
    # tenant's event log bit for bit.
    assert fair_digests == repeat_digests
