"""End-to-end benchmark driver.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload the way ``BENCHMARK.json`` promises and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Without
``--workload`` all four workloads run with their repetitions interleaved
round-robin and the last line holds one such object per workload.
``--check-noise K`` repeats the whole run K times on consecutive seeds and
judges each end-to-end metric's spread against its bound.

Protocol per workload (one worker process each, never two runnable at once):
one untimed warm-up repetition; timed repetitions with nothing installed
until ``--seconds`` are spent (at least ``MIN_REPS``, or exactly ``--reps``);
the peak-RSS reading; then one repetition that counts Python calls
(``--trace 0``) or ``TRACED_REPS`` with every layer wrapped in spans, of which
the fastest is reported (``--trace 1``).  Set-up probes (fresh interpreters)
run between the timed repetitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from worker import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

#: Timed repetitions never fewer than this, however slow the host.
MIN_REPS = 5
#: Fresh-interpreter set-up probes per run.
SETUP_PROBES = 7
#: Traced repetitions per run; the least disturbed (fastest) one is reported.
TRACED_REPS = 3
#: Seconds the calibration kernel takes on the box the bounds were proven on.
#: Wall-clock metrics are scaled to it (see ``host_speed``).
CAL_REF_S = 0.0115


class BenchmarkError(Exception):
    """The run cannot produce a result (worker died, contract mismatch)."""


def load_contract() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ workers
class Worker:
    """One ``worker.py`` process serving repetitions of one workload."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.process = subprocess.Popen(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        if self._read_line() != "ready":
            raise BenchmarkError(f"worker for {workload} did not come up")

    def _read_line(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise BenchmarkError(f"worker for {self.workload} exited with code {code}")
        return line.strip()

    def ask(self, command: str) -> Dict[str, object]:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return json.loads(self._read_line())

    def close(self) -> None:
        """Stop the process and wait until it has ended."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.flush()
                self.process.stdin.close()
                self.process.wait(timeout=10.0)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def setup_probe(workload: str) -> Dict[str, float]:
    """Spawn to ready-to-call-``run_scenario`` in a fresh interpreter."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload, "--probe"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
    )
    try:
        line = process.stdout.readline()
        wall = time.perf_counter() - start
    finally:
        process.stdout.close()
        code = process.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"set-up probe for {workload} failed with code {code}")
    return {"wall_s": wall, "cal_s": calibrate()}


# -------------------------------------------------------------- measurement
def measure(
    names: Sequence[str], seed: int, seconds: float, reps: Optional[int], trace: bool
) -> Dict[str, Dict[str, object]]:
    """Drive the protocol; raw samples per workload."""
    workers: Dict[str, Worker] = {}
    raw: Dict[str, Dict[str, object]] = {}
    try:
        for name in names:
            workers[name] = Worker(name, seed)
            raw[name] = {"warmup": workers[name].ask("rep"), "reps": [], "probes": [], "spent_s": 0.0}

        def wants_rep(name: str) -> bool:
            done = len(raw[name]["reps"])
            if reps is not None:
                return done < reps
            return done < MIN_REPS or raw[name]["spent_s"] < seconds

        # Repetition k of every workload before repetition k+1 of any, so
        # each workload's samples span the whole run and host drift hits all
        # of them alike; one set-up probe per workload rides along per round.
        while any(wants_rep(name) for name in names):
            for name in names:
                if wants_rep(name):
                    started = time.perf_counter()
                    raw[name]["reps"].append(workers[name].ask("rep"))
                    raw[name]["spent_s"] += time.perf_counter() - started
                if not trace and len(raw[name]["probes"]) < SETUP_PROBES:
                    raw[name]["probes"].append(setup_probe(name))
        for name in names:
            while not trace and len(raw[name]["probes"]) < SETUP_PROBES:
                raw[name]["probes"].append(setup_probe(name))
            raw[name]["peak_rss_mb"] = workers[name].ask("rss")["peak_rss_mb"]
        for name in names:
            raw[name]["finals"] = (
                [workers[name].ask("trace") for _ in range(TRACED_REPS)]
                if trace else [workers[name].ask("count")]
            )
    finally:
        for worker in workers.values():
            worker.close()
    return raw


def host_speed(raw: Dict[str, object]) -> float:
    """How fast the host was during this run, relative to the reference host.

    The host's speed moves between two states about 13 % apart, for minutes
    at a time, and on top of that it is disturbed in bursts of a second or
    two; both only ever slow a sample down.  The fastest calibration seen
    anywhere in the run follows the state and sheds the bursts.  Wall-clock
    samples times this factor are seconds of the reference host.
    """
    return CAL_REF_S / min(sample["cal_s"] for sample in (*raw["reps"], *raw["probes"]))


def summarize(name: str, raw: Dict[str, object], trace: bool) -> Dict[str, object]:
    """Checked outcome and metric values of one workload's samples."""
    expected = raw["warmup"]["outcome"]
    # Of several traced repetitions the fastest is the least disturbed one;
    # there is one counted repetition.
    final = min(raw["finals"], key=lambda rep: rep["wall_s"]) if trace else raw["finals"][0]
    problems: List[str] = []
    for label, sample in [
        *((f"rep {i}", rep) for i, rep in enumerate(raw["reps"])),
        *((f"final rep {i}", rep) for i, rep in enumerate(raw["finals"])),
    ]:
        if sample["outcome"] != expected:
            problems.append(f"{label} does not reproduce the warm-up: {sample['outcome']} != {expected}")
    attempted = int(expected["total_tasks"])
    failed = attempted - int(expected["completed_tasks"])
    if failed or expected["failed_tasks"]:
        problems.append(f"{failed} of {attempted} tasks did not complete")

    rep_walls = [rep["wall_s"] for rep in raw["reps"]]
    median_wall = statistics.median(rep_walls)
    values: Dict[str, float] = {}
    if trace:
        values.update(final["metrics"])
        # Fastest against fastest: the traced repetitions are few.
        values["harness.trace_overhead_share"] = final["wall_s"] / min(rep_walls) - 1.0
        values["harness.cold_rep_penalty_s"] = raw["warmup"]["wall_s"] - median_wall
        values["harness.calibration_ms"] = 1000.0 * min(rep["cal_s"] for rep in raw["reps"])
        values["harness.raw_tasks_per_s"] = attempted / median_wall
        values["harness.timed_reps"] = len(rep_walls)
    else:
        # Disturbances only add time.  The fastest repetition is the one the
        # host left alone; a set-up probe also reads files, so its fastest is
        # a lucky cache state and the lower quartile is steadier.
        speed = host_speed(raw)
        probe_walls = [probe["wall_s"] for probe in raw["probes"]]
        values["setup_s"] = statistics.quantiles(probe_walls, n=4)[0] * speed
        values["tasks_per_s"] = attempted / (min(rep_walls) * speed)
        values["py_calls_per_task"] = final["py_calls"] / attempted
        values["peak_rss_mb"] = raw["peak_rss_mb"]
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "rep_wall_s": rep_walls,
        "rep_wall_quartiles_s": statistics.quantiles(rep_walls, n=4),
        "trace": final.get("trace"),
        "missing": final.get("missing", []),
    }


def result_object(summary: Dict[str, object], declared: List[Dict[str, str]]) -> Dict[str, object]:
    """The contract's result: every declared metric, by name, with its unit."""
    values = summary["values"]
    absent = [metric["name"] for metric in declared if metric["name"] not in values]
    extra = sorted(set(values) - {metric["name"] for metric in declared})
    if absent or extra:
        raise BenchmarkError(f"BENCHMARK.json and the harness disagree: absent {absent}, extra {extra}")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def run_once(names: Sequence[str], seed: int, seconds: float, reps: Optional[int], trace: bool,
             contract: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """One whole benchmark run: result objects per workload, report printed."""
    declared = contract["per_layer" if trace else "end_to_end"]
    raw = measure(names, seed, seconds, reps, trace)
    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        summary = summarize(name, raw[name], trace)
        results[name] = result_object(summary, declared)
        quartiles = summary["rep_wall_quartiles_s"]
        print(
            f"== {name}  seed {seed}  timed reps R={len(summary['rep_wall_s'])}  "
            f"rep wall quartiles {quartiles[0]:.3f} / {quartiles[1]:.3f} / {quartiles[2]:.3f} s  "
            f"attempted {summary['attempted']}  failed {summary['failed']}"
        )
        for metric in declared:
            entry = results[name]["metrics"][metric["name"]]
            print(f"   {metric['name']:40s} {entry['value']:16.6f} {entry['unit']}")
        for problem in summary["problems"]:
            print(f"   INCORRECT: {problem}")
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            with open(OUT_DIR / f"trace-{name}.json", "w", encoding="utf-8") as handle:
                json.dump(
                    {"workload": name, "seed": seed, "missing_targets": summary["missing"],
                     **summary["trace"]},
                    handle, indent=1, sort_keys=True,
                )
    return results


# -------------------------------------------------------------- noise check
def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else float("inf")


def check_noise(
    runs: List[Dict[str, Dict[str, object]]], contract: Dict[str, object]
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Print every end-to-end metric's values and spread; return the verdicts."""
    verdicts: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in runs[0]:
        print(f"== noise: {name} over {len(runs)} runs")
        verdicts[name] = {}
        for metric in contract["end_to_end"]:
            values = [run[name]["metrics"][metric["name"]]["value"] for run in runs]
            share = spread(values)
            # setup_s is exempt from the driver's spread rule, not from ours.
            ok = share <= metric["bound"]
            verdicts[name][metric["name"]] = {
                "median": statistics.median(values), "spread": share, "ok": ok
            }
            listing = " ".join(f"{value:.6g}" for value in values)
            print(
                f"   {metric['name']:20s} median {statistics.median(values):.6g} {metric['unit']:10s} "
                f"spread {share:.4f} bound {metric['bound']}  {'PASS' if ok else 'FAIL'}  [{listing}]"
            )
    return verdicts


# --------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    known = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=known, help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="timed section per workload")
    parser.add_argument("--reps", type=int, help="exactly this many timed repetitions instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the result JSON here")
    parser.add_argument("--check-noise", type=int, metavar="K",
                        help="K runs on seeds N..N+K-1; judge spreads against the bounds")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 2:
        parser.error("--reps must be at least 2")
    names = [args.workload] if args.workload else known

    try:
        if args.check_noise:
            if args.check_noise < 2:
                parser.error("--check-noise needs at least 2 runs")
            runs = [
                run_once(names, args.seed + k, args.seconds, args.reps, False, contract)
                for k in range(args.check_noise)
            ]
            verdicts = check_noise(runs, contract)
            passed = all(v["ok"] for metrics in verdicts.values() for v in metrics.values())
            correct = all(result["correct"] for run in runs for result in run.values())
            payload: Dict[str, object] = {"noise_ok": passed, "correct": correct, "noise": verdicts}
            code = 0 if passed and correct else 1
        else:
            results = run_once(names, args.seed, args.seconds, args.reps, bool(args.trace), contract)
            correct = all(result["correct"] for result in results.values())
            payload = results[args.workload] if args.workload else {"workloads": results}
            code = 0 if correct else 1
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
