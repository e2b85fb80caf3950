"""Ablation — DHA's delay mechanism.

Not a paper table, but a design choice of §IV-D (the
``dispatch_allowance()`` gate of README.md's "Architecture" diagram): DHA
selects an endpoint early (so staging can start immediately) yet delays the
dispatch until the endpoint has idle workers, keeping staged tasks in the
client queue where the re-scheduling mechanism can still move them.
Disabling the delay pushes tasks into endpoint queues immediately, shrinking
the re-schedulable pool.
"""

import dataclasses

from repro.experiments.case_studies import run_spec
from repro.experiments.reporting import format_table
from repro.scenarios.presets import paper_spec

from benchmarks.conftest import BENCH_SEED, DYNAMIC_BENCH_SCALE, assert_pinned


def test_ablation_delay_mechanism(benchmark):
    def run_both():
        spec = paper_spec("drug_screening", "dynamic", scale=DYNAMIC_BENCH_SCALE, seed=BENCH_SEED)
        return {
            "DHA (delay)": run_spec(spec, "DHA (delay)"),
            "DHA (no delay)": run_spec(
                dataclasses.replace(spec, enable_delay_mechanism=False), "DHA (no delay)"
            ),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert_pinned("ablation-delay", results)

    print()
    print("Ablation — DHA delay mechanism (drug screening, dynamic capacity)")
    rows = [
        (name, round(r.makespan_s, 1), r.rescheduled_tasks, round(r.transfer_size_gb, 2))
        for name, r in results.items()
    ]
    print(format_table(["variant", "makespan_s", "rescheduled", "transfer_gb"], rows))
    benchmark.extra_info.update({name: round(r.makespan_s, 1) for name, r in results.items()})

    with_delay = results["DHA (delay)"]
    without_delay = results["DHA (no delay)"]
    # Both complete the workflow.
    assert with_delay.completed_tasks == without_delay.completed_tasks
    # The delay mechanism keeps DHA at least competitive and preserves a
    # re-schedulable pool of pending tasks.
    assert with_delay.makespan_s <= without_delay.makespan_s * 1.15
    assert with_delay.rescheduled_tasks >= without_delay.rescheduled_tasks
