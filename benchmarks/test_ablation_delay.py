"""Ablation — DHA's delay mechanism.

Not a paper table, but a design choice of §IV-D (the ``should_dispatch()``
gate of README.md's "Architecture" diagram): DHA selects an
endpoint early (so staging can start immediately) yet delays the dispatch
until the endpoint has idle workers, keeping staged tasks in the client
queue where the re-scheduling mechanism can still move them.  Disabling the
delay pushes tasks into endpoint queues immediately, shrinking the
re-schedulable pool.
"""

from repro.experiments.case_studies import DRUG_DYNAMIC_CHANGES, DRUG_DYNAMIC_DEPLOYMENT, run_case_study
from repro.experiments.reporting import format_table

from benchmarks.conftest import BENCH_SEED, DYNAMIC_BENCH_SCALE


def test_ablation_delay_mechanism(benchmark):
    def run_both():
        common = dict(
            scale=DYNAMIC_BENCH_SCALE,
            capacity_changes=DRUG_DYNAMIC_CHANGES,
            workflow_fraction=0.5,
            seed=BENCH_SEED,
        )
        with_delay = run_case_study(
            "drug_screening", "DHA", DRUG_DYNAMIC_DEPLOYMENT, label="DHA (delay)", **common
        )
        without_delay = run_case_study(
            "drug_screening",
            "DHA",
            DRUG_DYNAMIC_DEPLOYMENT,
            enable_delay_mechanism=False,
            label="DHA (no delay)",
            **common,
        )
        return {"DHA (delay)": with_delay, "DHA (no delay)": without_delay}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

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
