"""Exact-count gate: fail CI when a workload makes more Python calls per task.

``py_calls_per_task`` of the end-to-end benchmark (``benchmarks/e2e/run.py
--trace 0``) is a count, not a timing: under one Python minor version it
repeats to five digits on any host, so unlike the wall-clock baselines beside
this file it can be gated hard.  The ceilings live in
``benchmarks/baselines/e2e_calls.json``.  The gate is two-sided: a count more
than 3 % above its ceiling fails, and so does one more than 3 % *below* it
("stale ceiling"), so a cut is recorded by lowering the ceiling in the change
that earns it rather than left as slack a later regression could spend.

The count does depend on the interpreter (3.12 inlines comprehensions, which
3.11 counts as calls), so the baseline records the version it was counted
under and the gate refuses to judge under another.

Usage::

    python3 benchmarks/e2e/run.py --workload NAME --seed 1 --reps 3 --trace 0 --out RESULT.json
    python3 benchmarks/check_e2e_calls.py NAME RESULT.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE = Path(__file__).parent / "baselines" / "e2e_calls.json"
#: Allowed fractional distance from the committed ceiling, either way.
TOLERANCE = 0.03


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="the --workload the result was produced with")
    parser.add_argument("result", type=Path, help="the --out file of benchmarks/e2e/run.py")
    args = parser.parse_args(argv)

    baseline = json.loads(BASELINE.read_text())
    running = "%d.%d" % sys.version_info[:2]
    if baseline["python"] != running:
        print(f"ceilings were counted under Python {baseline['python']}, this is {running}: "
              "counts are not comparable", file=sys.stderr)
        return 2
    if args.workload not in baseline["py_calls_per_task"]:
        print(f"no ceiling committed for workload {args.workload!r}", file=sys.stderr)
        return 2
    ceiling = float(baseline["py_calls_per_task"][args.workload])

    result = json.loads(args.result.read_text())
    if not result["correct"] or result["failed"]:
        print(f"{args.workload}: the run itself is incorrect "
              f"({result['failed']} of {result['attempted']} tasks failed)", file=sys.stderr)
        return 1
    calls = float(result["metrics"]["py_calls_per_task"]["value"])
    excess = (calls - ceiling) / ceiling
    if excess > TOLERANCE:
        verdict = "EXCEEDED"
    elif excess < -TOLERANCE:
        verdict = "stale ceiling"
    else:
        verdict = "OK"
    print(f"{verdict:<9} {args.workload}: {calls:.2f} calls/task against a ceiling of "
          f"{ceiling:.2f} ({excess:+.2%}, limit ±{TOLERANCE:.0%})")
    if verdict == "stale ceiling":
        print(f"{args.workload}: lower its ceiling in {BASELINE.name} to {calls:.2f}",
              file=sys.stderr)
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
