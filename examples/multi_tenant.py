#!/usr/bin/env python3
"""Serving many tenants' workflows on one shared federation.

Builds a three-site simulated federation, registers four tenant workflows
with different owners, weights and staggered arrivals, and runs them
concurrently through the multi-workflow serving layer under each
arbitration policy — printing the per-tenant makespans, mean waits and
Jain's fairness index each policy produces.  The same comparison is
available from the command line::

    python -m repro run-scenario multi-tenant
    python -m repro run-scenario tenant-storm
    python -m repro compare multi-tenant --arbitrations fifo,fair_share,priority
    python -m repro run-scenario ci-smoke --workflows 4 --arbitration fair_share

This script shows the Python API: build a
:class:`~repro.serving.WorkflowManager` over a shared fabric, add workflows
with :meth:`~repro.serving.WorkflowManager.add_workflow` (a ``builder``
composes each DAG when its arrival comes due), ``run()``, and read the
per-tenant report off :meth:`~repro.serving.WorkflowManager.summary`.
"""

import argparse

from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.serving import Federation, WorkflowManager
from repro.sim.hardware import testbed_clusters
from repro.sim.network import NetworkModel
from repro.workloads.synthetic import build_stress_workload

#: (workflow id, owner, fair-share weight, strict priority, arrival, tasks)
TENANTS = [
    ("wf0", "astro-survey", 2.0, 3, 0.0, 120),
    ("wf1", "drug-screen", 1.0, 2, 5.0, 120),
    ("wf2", "grad-student", 1.0, 1, 10.0, 120),
    ("wf3", "batch-backfill", 0.5, 0, 15.0, 120),
]


def build_environment(seed: int):
    clusters = testbed_clusters()
    setups = []
    for name, cluster, workers in (("taiyi", "taiyi", 16), ("qiming", "qiming", 12),
                                   ("lab", "lab", 8)):
        spec = clusters[cluster].with_overrides(queue_delay_mean_s=0.0,
                                                queue_delay_std_s=0.0)
        setups.append(
            EndpointSetup(name=name, cluster=spec, initial_workers=workers,
                          max_workers=workers * 2, auto_scale=False,
                          duration_jitter=0.0, execution_overhead_s=0.0)
        )
    names = [s.name for s in setups]
    network = NetworkModel.uniform(names, bandwidth_mbps=150.0, jitter=0.0, seed=seed)
    return build_simulation(setups, network=network,
                            latency=ServiceLatencyModel(), seed=seed)


def run_policy(policy: str, seed: int):
    env = build_environment(seed)
    config = env.make_config("DHA", enable_scaling=False)
    federation = Federation(config, env.fabric, transfer_backend=env.transfer_backend)
    env.seed_full_knowledge(federation)
    manager = WorkflowManager(federation, arbitration=policy)
    for wid, owner, weight, priority, arrival, tasks in TENANTS:
        manager.add_workflow(
            wid,
            owner=owner,
            weight=weight,
            priority=priority,
            arrival_s=arrival,
            builder=lambda h, n=tasks: build_stress_workload(h, n, 3.0, output_mb=0.0),
        )
    manager.run(max_wall_time_s=120.0)
    return manager.summary()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for policy in ("fifo", "fair_share", "priority"):
        summary = run_policy(policy, args.seed)
        print(f"\n=== arbitration: {summary.policy}  "
              f"(makespan {summary.makespan_s:.1f} s, "
              f"Jain fairness {summary.jain_fairness:.3f}) ===")
        for wid, wf in summary.workflows.items():
            print(f"  {wid}  owner={wf.tenant:<14} makespan {wf.makespan_s:6.1f} s   "
                  f"mean wait {wf.wait_time_mean_s:5.1f} s   "
                  f"p95 wait {wf.wait_time_p95_s:5.1f} s   "
                  f"completed {wf.completed_tasks}")


if __name__ == "__main__":
    main()
