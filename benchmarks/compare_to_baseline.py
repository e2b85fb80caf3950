"""Benchmark regression gate: fail CI when the pump slows down.

Compares a fresh ``pytest --benchmark-json`` output against a committed
baseline (one of ``benchmarks/baselines/*.json``) and exits
non-zero when any benchmark's mean time regressed by more than the allowed
fraction — the same check ``pytest-benchmark``'s ``--benchmark-compare-fail``
performs, reimplemented so the baseline can live in the repository instead
of the machine-local ``.benchmarks`` storage (CI runners are ephemeral).

Absolute wall-clock means are hardware-sensitive: regenerate the committed
baseline from a CI-runner artifact (every gated job uploads one per run)
whenever runners change class, and treat a gate failure with
no plausible causing commit as a stale-baseline signal before anything
else.

Usage::

    python benchmarks/compare_to_baseline.py RESULT.json BASELINE.json \
        [--max-regression 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_means(path: Path) -> dict:
    data = json.loads(path.read_text())
    return {b["name"]: float(b["stats"]["mean"]) for b in data["benchmarks"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path, help="fresh --benchmark-json output")
    parser.add_argument("baseline", type=Path, help="committed baseline to gate against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional mean-time increase (default 0.25)")
    args = parser.parse_args(argv)

    baseline = load_means(args.baseline)
    result = load_means(args.result)
    failures = []
    for name, base_mean in sorted(baseline.items()):
        if name not in result:
            failures.append(f"{name}: missing from the fresh run")
            continue
        mean = result[name]
        change = (mean - base_mean) / base_mean
        status = "OK" if change <= args.max_regression else "REGRESSED"
        print(f"{status:<9} {name}: baseline {base_mean:.3f}s -> {mean:.3f}s "
              f"({change:+.1%}, limit +{args.max_regression:.0%})")
        if change > args.max_regression:
            failures.append(f"{name}: mean regressed {change:+.1%}")
    for name in sorted(set(result) - set(baseline)):
        print(f"NEW       {name}: {result[name]:.3f}s (no baseline, not gated)")

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
