"""Ablation — the endpoint monitor's local mocking mechanism (§IV-B).

The funcX service only refreshes endpoint status periodically; UniFaaS keeps
locally mocked endpoints that mirror every dispatch/completion instantly so
the scheduler sees real-time capacity.  Disabling the mocks (scheduling from
the stale service view only) makes the delay mechanism and endpoint selection
operate on out-of-date worker counts.
"""

import dataclasses

from repro.experiments.case_studies import run_spec
from repro.experiments.reporting import format_table
from repro.scenarios.presets import paper_spec

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, assert_pinned


def test_ablation_local_mocking(benchmark):
    def run_both():
        spec = paper_spec("drug_screening", scale=min(BENCH_SCALE, 0.03), seed=BENCH_SEED)
        return {
            "mocking on": run_spec(spec, "mocking on"),
            "mocking off": run_spec(
                dataclasses.replace(spec, endpoint_mocking=False), "mocking off"
            ),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert_pinned("ablation-mocking", results)

    print()
    print("Ablation — endpoint monitor local mocking (drug screening, static)")
    rows = [
        (name, round(r.makespan_s, 1), round(r.utilization.mean(), 1))
        for name, r in results.items()
    ]
    print(format_table(["variant", "makespan_s", "mean_util_%"], rows))
    benchmark.extra_info.update({name: round(r.makespan_s, 1) for name, r in results.items()})

    on = results["mocking on"]
    off = results["mocking off"]
    # Both configurations complete the workflow correctly.
    assert on.completed_tasks == off.completed_tasks == on.task_count
    # Real-time mocked state never hurts: the mocked run is at least as fast
    # (stale status can strand staged tasks until the next refresh).
    assert on.makespan_s <= off.makespan_s * 1.05
