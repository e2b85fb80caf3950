#!/usr/bin/env python3
"""Run the drug-screening workflow across the simulated federated testbed.

This is the §VI-A case study at a reduced scale: the drug-screening pipeline
(docking → features/fingerprints → ML scoring → filtering → simulation) runs
across four heterogeneous clusters (Taiyi, Qiming, Dept. cluster, Lab
cluster) under the DHA scheduler, and is compared against using Taiyi alone.

Run with::

    python examples/drug_screening_federated.py [--scale 0.02]
"""

import argparse

from repro.experiments.case_studies import run_spec
from repro.experiments.reporting import format_case_study_table, format_timeseries
from repro.scenarios.presets import paper_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02,
                        help="fraction of the paper's 24 001-task workflow to run")
    parser.add_argument("--scheduler", default="DHA",
                        choices=["DHA", "CAPACITY", "LOCALITY", "HEFT", "ROUND_ROBIN"])
    args = parser.parse_args()

    print(f"Running drug screening at scale {args.scale} with {args.scheduler} ...")
    federated = run_spec(
        paper_spec("drug_screening", "static", args.scheduler, scale=args.scale)
    )
    print("Running the single-cluster baseline (Taiyi only) ...")
    baseline = run_spec(
        paper_spec("drug_screening", "baseline", "CAPACITY", scale=args.scale),
        "Baseline: Only Taiyi",
    )

    results = {args.scheduler: federated, "Baseline: Only Taiyi": baseline}
    print()
    print(format_case_study_table(results))

    extra_workers = (
        sum(federated.deployment.values()) / sum(baseline.deployment.values()) - 1.0
    ) * 100.0
    improvement = (1.0 - federated.makespan_s / baseline.makespan_s) * 100.0
    print(
        f"\nFederating the {len(federated.deployment)} clusters adds "
        f"{extra_workers:.1f}% workers and improves the makespan by {improvement:.1f}% "
        f"(paper: +19.48% workers -> 22.99% faster)."
    )
    print("\nWorker utilisation over time (federated run):")
    print(format_timeseries("  util %", federated.utilization))
    print("\nTasks per worker (Fig. 11 analogue):")
    for endpoint, value in federated.tasks_per_worker().items():
        print(f"  {endpoint:8s} {value:6.2f} tasks/worker")


if __name__ == "__main__":
    main()
