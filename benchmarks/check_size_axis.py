"""Size-axis gate: Python calls per task must not grow with the workload's size.

``py_calls_per_task`` of the end-to-end benchmark is counted at one fixed
size per workload, so a per-task cost that grows with the number of tasks —
a scan over everything seen so far, repeated per growth window — passes its
ceiling unseen.  This gate counts the same quantity (``benchmarks/e2e``'s
worker rule: every Python-level call under ``sys.setprofile``, after one
warm-up run) on ``WORKLOAD`` at the two task counts of ``SIZES`` and fails
when the larger size costs more than ``LIMIT`` times the smaller per task.

Like ``check_e2e_calls.py`` it judges a count, not a timing, so it is exact
under one Python version on any host.  The workload, sizes, limit and seed
are constants: loosening the gate is a code change, like lowering a ceiling.

Usage::

    python3 benchmarks/check_size_axis.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD = "fanout-array"
SIZES = (6000, 24000)
LIMIT = 1.01
SEED = 1


def calls_per_task(run_scenario, spec, seed: int) -> float:
    """Calls per task of one counted run of ``spec``, after a warm-up run."""
    from worker import counted_rep, outcome_of

    warmup = outcome_of(run_scenario(spec, seed=seed))
    rep = counted_rep(run_scenario, spec, seed)
    outcome = rep["outcome"]
    if outcome != warmup:
        raise SystemExit(f"the counted run does not reproduce the warm-up: {outcome} != {warmup}")
    if outcome["failed_tasks"] or outcome["completed_tasks"] != outcome["total_tasks"]:
        raise SystemExit(f"the run itself is incorrect: {outcome}")
    return rep["py_calls"] / outcome["total_tasks"]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE / "e2e"))
    from repro.scenarios.spec import run_scenario
    from workloads import build_spec

    base = build_spec(WORKLOAD)
    counts = []
    for size in SIZES:
        spec = dataclasses.replace(
            base, workload=dataclasses.replace(base.workload, task_count=size)
        )
        counts.append(calls_per_task(run_scenario, spec, SEED))
        print(f"{WORKLOAD} at {size} tasks: {counts[-1]:.2f} calls/task")
    ratio = counts[1] / counts[0]
    ok = ratio <= LIMIT
    print(f"{'OK' if ok else 'EXCEEDED':<9} {WORKLOAD}: {SIZES[1]} / {SIZES[0]} "
          f"tasks cost {ratio:.4f}x the calls per task (limit {LIMIT:.2f}x)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
