"""Benchmark worker: one process, one workload, repetitions on command.

The driver (``run.py``) spawns one of these per workload and speaks a line
protocol over the pipes: a command word in, one JSON object out.  Only one
worker is ever runnable at a time, so the repetitions of different workloads
interleave without competing for the two cores.

``--probe`` is the set-up probe: import ``repro.scenarios``, build the
workload's spec, say ``ready`` and exit; the driver times spawn to ``ready``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Per-repetition wall-clock cap handed to ``run_scenario`` (a repetition takes
#: 2-3 s, counted 6-8 s); a run that hits it fails instead of overrunning.
MAX_REP_WALL_S = 60.0


# ------------------------------------------------------------- calibration
class _Cell:
    __slots__ = ("total", "decay")

    def __init__(self) -> None:
        self.total = 0
        self.decay = 1.0

    def step(self, i: int) -> int:
        self.total += i & 3
        self.decay = self.decay * 0.999 + 0.001
        return self.total


def _kernel() -> float:
    """A fixed slice of interpreter work: dict, list, attribute, call, sort."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    cell = _Cell()
    rows: List[tuple] = []
    acc = 0
    for i in range(60000):
        table[i & 1023] = acc
        acc += cell.step(i)
        if not i & 31:
            rows.append((i, acc, table.get(acc & 1023, 0)))
            if len(rows) > 256:
                rows.sort(key=lambda row: -row[0])
                del rows[128:]
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the host needs for the fixed kernel right now (median of 9).

    Wall-clock metrics are reported relative to a run's fastest calibration,
    because the host's speed moves by 13 % for minutes at a time (README,
    "Wall-clock values are the fastest sample, scaled").
    """
    return statistics.median(_kernel() for _ in range(9))


# ------------------------------------------------------------- repetitions
def outcome_of(result) -> Dict[str, object]:
    """What every repetition of one run must reproduce exactly."""
    return {
        "digest": result.determinism_digest,
        "total_tasks": result.total_tasks,
        "completed_tasks": result.completed_tasks,
        "failed_tasks": result.failed_tasks,
        "makespan_s": result.makespan_s,
        "staged_mb": result.staged_mb,
    }


def timed_rep(run_scenario, spec, seed: int) -> Dict[str, object]:
    """One repetition with nothing installed, followed by a calibration."""
    gc.collect()
    start = time.perf_counter()
    result = run_scenario(spec, seed=seed, max_wall_time_s=MAX_REP_WALL_S)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cal_s": calibrate(), "outcome": outcome_of(result)}


def counted_rep(run_scenario, spec, seed: int) -> Dict[str, object]:
    """One repetition counting Python-level function calls."""
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    sys.setprofile(on_event)
    try:
        result = run_scenario(spec, seed=seed, max_wall_time_s=MAX_REP_WALL_S)
    finally:
        sys.setprofile(None)
    return {"py_calls": calls, "outcome": outcome_of(result)}


def traced_rep(run_scenario, spec, seed: int, targets=None) -> Dict[str, object]:
    """One repetition with every layer's callables wrapped in spans."""
    import layers
    import spans

    tracer = spans.Tracer()
    gc.collect()
    installed = spans.install(tracer, layers.TARGETS if targets is None else targets)
    try:
        start = time.perf_counter()
        result = run_scenario(spec, seed=seed, max_wall_time_s=MAX_REP_WALL_S)
        wall = time.perf_counter() - start
    finally:
        installed.remove()
    for where in installed.missing:
        print(f"warning: trace target {where} is gone; its metrics read 0", file=sys.stderr)
    return {
        "wall_s": wall,
        "outcome": outcome_of(result),
        "missing": installed.missing,
        "trace": tracer.as_dict(),
        "metrics": layers.derive(tracer, result, wall),
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- process
def load_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro.scenarios  # noqa: F401 - the import the set-up probe times
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"repro was imported from {origin}, not from {ROOT / 'src'}")
    from repro.scenarios.spec import run_scenario

    import workloads

    return run_scenario, workloads


def serve(run_scenario, spec, seed: int, commands, replies) -> None:
    handlers = {
        "rep": lambda: timed_rep(run_scenario, spec, seed),
        "count": lambda: counted_rep(run_scenario, spec, seed),
        "trace": lambda: traced_rep(run_scenario, spec, seed),
        "rss": lambda: {"peak_rss_mb": peak_rss_mb()},
    }
    for line in commands:
        command = line.strip()
        if command == "quit":
            return
        replies.write(json.dumps(handlers[command]()) + "\n")
        replies.flush()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # The protocol owns the real stdout; anything the program prints goes to
    # stderr instead of corrupting a reply.
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    run_scenario, workloads = load_program()
    spec = workloads.build_spec(args.workload)
    replies.write("ready\n")
    replies.flush()
    if not args.probe:
        serve(run_scenario, spec, args.seed, sys.stdin, replies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
