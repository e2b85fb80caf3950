#!/usr/bin/env python3
"""The workflow-authoring API, end to end: decorators, failure-dependent
edges, conditions, convergence loops, and array fan-out.

Three tours:

1. drive a hand-declared workflow directly with :class:`WorkflowRun` on a
   two-site simulated federation and inspect the authoring-level outcomes
   (which branches ran, which were skipped);
2. plug an ad-hoc definition into the scenario harness via
   ``WorkloadSpec(definition=...)``;
3. run the registered **zoo** presets, the same ones CI cross-checks for
   byte-determinism across engine modes.

Run with::

    python examples/authoring_zoo.py
"""

import dataclasses

from repro.authoring import WorkflowRun, after, ensure, job, registered_names, workflow
from repro.core.functions import set_current_client
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.faas.types import ServiceLatencyModel
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.spec import WorkloadSpec
from repro.sim.hardware import ClusterSpec, HardwareSpec
from repro.sim.network import NetworkModel


# ----------------------------------------------------------------- tour 1
# A pipeline with a poison stage: `flaky_export` fails on every endpoint
# (failure_rate=1.0) with no retry budget, so its §IV-G ladder exhausts and
# the failure edge routes execution through the fallback branch instead.
@workflow
def resilient_pipeline(width=64):
    @job(duration_s=1.0, output_mb=2.0)
    def ingest():
        pass

    @after(ingest)
    @job(duration_s=0.1, array=width)  # fan out over `width` engine tasks
    def shard():
        pass

    @after(shard)
    @job(duration_s=1.0, max_trips=5, until=lambda trip: trip >= 2)
    def calibrate():  # chained trips until the predicate converges
        pass

    @after(calibrate)
    @job(duration_s=0.5, retries=0, failure_rate=1.0)
    def flaky_export():  # poison: terminally fails everywhere
        pass

    @after(flaky_export)
    @job(duration_s=0.5)
    def happy_publish():  # skipped — its parent never succeeds
        pass

    @after(flaky_export, status="failure")
    @job(duration_s=0.5)
    def export_fallback():  # the recovery branch that actually runs
        pass

    # An `ensure` postcondition can demote a completed task to failure;
    # here it always holds, so `audit` succeeds.
    @ensure(lambda i: True)
    @after(export_fallback)
    @job(duration_s=0.5)
    def audit():
        pass


def small_site(name, workers=8):
    return ClusterSpec(
        name=name,
        hardware=HardwareSpec(cores_per_node=workers, cpu_freq_ghz=2.5, ram_gb=64),
        num_nodes=4,
        workers_per_node=workers,
        queue_delay_mean_s=0.0,
        queue_delay_std_s=0.0,
    )


def run_directly():
    print("=== 1. WorkflowRun on a two-site simulated federation ===")
    setups = [
        EndpointSetup(name=site, cluster=small_site(site), initial_workers=8,
                      duration_jitter=0.0, execution_overhead_s=0.0)
        for site in ("site_a", "site_b")
    ]
    network = NetworkModel.uniform(["site_a", "site_b"], bandwidth_mbps=200.0,
                                   jitter=0.0, seed=0)
    latency = ServiceLatencyModel(
        submit_latency_s=0.001, dispatch_latency_s=0.01,
        result_poll_latency_s=0.01, endpoint_overhead_s=0.0,
        status_refresh_interval_s=60.0,
    )
    env = build_simulation(setups, network=network, latency=latency, seed=0)
    client = env.make_client(env.make_config("DHA"))

    run = WorkflowRun(resilient_pipeline, client, params={"width": 64}).start()
    client.run(max_wall_time_s=120.0)

    for name, outcome in run.outcomes().items():
        print(f"  {name:16s} {outcome:8s} ({run.materialized(name)} engine tasks)")
    set_current_client(None)


# ----------------------------------------------------------------- tour 2
def run_through_a_scenario():
    print("\n=== 2. Ad-hoc definition inside the scenario harness ===")
    spec = dataclasses.replace(
        get_scenario("ci-smoke"),
        name="authored-adhoc",
        workload=WorkloadSpec(
            kind="layered",  # ignored: `definition` takes precedence
            definition=resilient_pipeline,
            workflow_params={"width": 128},
        ),
    )
    result = run_scenario(spec)
    print(f"  {result.completed_tasks}/{result.total_tasks} tasks completed, "
          f"{result.failed_tasks} terminal failures (the poison export), "
          f"makespan {result.makespan_s:.1f}s")
    print(f"  digest {result.determinism_digest[:16]}…  (stable across repeats "
          "and engine modes)")


# ----------------------------------------------------------------- tour 3
def run_the_zoo():
    print("\n=== 3. The registered zoo ===")
    print(f"  workload kinds: {', '.join(registered_names())}")
    for preset in ("zoo-conditional", "zoo-convergence"):
        result = run_scenario(get_scenario(preset))
        print(f"  {preset:16s} {result.completed_tasks}/{result.total_tasks} "
              f"tasks, makespan {result.makespan_s:.1f}s, "
              f"digest {result.determinism_digest[:16]}…")


def main() -> None:
    run_directly()
    run_through_a_scenario()
    run_the_zoo()


if __name__ == "__main__":
    main()
