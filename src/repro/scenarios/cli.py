"""``python -m repro`` — the scenario runner CLI.

Subcommands, designed so that CI can drive the scenario matrix and diff the
machine-readable artifacts:

``list-scenarios``
    Print the preset registry (name, scheduler, dynamics, description).

``run-scenario NAME``
    Execute one preset (with optional ``--scheduler`` / ``--dynamics`` /
    ``--seed`` / ``--scale`` overrides) and write ``BENCH_<id>.json`` — a
    byte-stable payload whose determinism digest CI compares across runs.
    ``--snapshot-at T`` captures a durability snapshot mid-run;
    ``--restore-from PATH`` replays and verifies one in a fresh process.

``compare NAME --schedulers dha,heft,locality``
    Run the same scenario once per scheduler and print a comparison table
    (plus one ``BENCH_*.json`` per run).

``check-replay BENCH_A BENCH_B``
    Compare a ``--snapshot-at`` run's artifact against a ``--restore-from``
    run's artifact; exits non-zero unless the post-cut event logs (tail
    digests), determinism digests and metrics all match — the replay proof
    CI's durability gate rests on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.authoring.registry import get_workflow, registered_names
from repro.durability import DurabilityOptions, SnapshotError
from repro.scenarios.presets import (
    get_scenario,
    resolve_dynamics,
    scenario_names,
    SCENARIOS,
)
from repro.scenarios.spec import SCHEDULER_ALIASES, ScenarioResult, run_scenario

__all__ = ["main"]


def _bench_filename(scenario_id: str) -> str:
    return f"BENCH_{scenario_id}.json"


def _effective_id(
    name: str,
    scheduler: Optional[str],
    dynamics: Optional[str],
    workflows: Optional[int] = None,
    arbitration: Optional[str] = None,
) -> str:
    """Artifact id: the preset name, suffixed by any overrides applied."""
    parts = [name]
    if scheduler is not None:
        parts.append(scheduler.lower())
    if dynamics is not None:
        parts.append(dynamics.lower())
    if workflows is not None:
        parts.append(f"{workflows}wf")
    if arbitration is not None:
        parts.append(arbitration.lower().replace("_", ""))
    return "-".join(parts)


def _write_bench(result: ScenarioResult, out_dir: Path, scenario_id: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / _bench_filename(scenario_id)
    path.write_text(result.to_json())
    return path


class _Refused(Exception):
    """The preset refuses an override (e.g. ``--workflows`` on a stream)."""


def _overridden(preset, **overrides):
    try:
        return preset.with_overrides(**overrides)
    except ValueError as exc:
        raise _Refused(str(exc)) from None


def _print_result(result: ScenarioResult, path: Optional[Path] = None) -> None:
    print(f"scenario            : {result.scenario}")
    print(f"scheduler           : {result.scheduler}")
    print(f"seed                : {result.seed}")
    print(f"makespan (sim)      : {result.makespan_s:.1f} s")
    print(f"tasks               : {result.completed_tasks}/{result.total_tasks} completed, "
          f"{result.failed_tasks} failed")
    print(f"staged data         : {result.staged_mb:.1f} MB")
    print(f"retries             : {result.retries}")
    print(f"rescheduled         : {result.rescheduled_tasks}")
    print(f"mean utilization    : {result.mean_utilization_pct:.1f}%")
    print(f"dynamics fired      : {len(result.dynamics_fired)} "
          f"(crashes: {result.endpoint_crashes})")
    if result.serving:
        serving = result.serving
        print(f"serving             : {serving['workflow_count']} workflows, "
              f"{serving['policy']} arbitration, "
              f"Jain fairness {serving['jain_fairness']:.3f}, "
              f"p95 tenant wait {serving['wait_p95_s']:.1f} s")
        for wid, wf in serving["workflows"].items():
            print(f"  {wid:<6} owner={wf['owner']:<10} arrival={wf['arrival_s']:>6.1f}s "
                  f"makespan={wf['makespan_s']:>7.1f}s wait={wf['wait_mean_s']:>6.1f}s "
                  f"done={wf['completed_tasks']}")
    if result.streaming:
        streaming = result.streaming
        print(f"streaming           : {streaming['arrivals']} arrivals, "
              f"{streaming['admitted']} admitted, {streaming['rejected']} rejected, "
              f"{streaming['abandoned']} abandoned ({streaming['policy']} arbitration)")
        print(f"  steady state      : {streaming['throughput_per_s']:.3f} wf/s, "
              f"p95 wait {streaming['wait_p95_s']:.1f} s, "
              f"deadline misses {100.0 * streaming['deadline_miss_rate']:.1f}%, "
              f"peak queue {streaming['queue_depth_peak']}, "
              f"peak active {streaming['active_peak']}")
    print(f"determinism digest  : {result.determinism_digest[:16]}…")
    if path is not None:
        print(f"artifact            : {path}")


def _cmd_list(args: argparse.Namespace) -> int:
    width = max(len(name) for name in scenario_names())
    print(f"{'NAME':<{width}}  {'SCHED':<8}  {'DYNAMICS':<9}  DESCRIPTION")
    for name in scenario_names():
        preset = SCENARIOS[name]
        dynamics = "none" if preset.dynamics.is_empty else "yes"
        print(f"{name:<{width}}  {preset.scheduler:<8}  {dynamics:<9}  {preset.description}")
    return 0


def _cmd_list_workflows(args: argparse.Namespace) -> int:
    names = registered_names()
    width = max(len(name) for name in names)
    print(f"{'NAME':<{width}}  DESCRIPTION")
    for name in names:
        print(f"{name:<{width}}  {get_workflow(name).description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    preset = get_scenario(args.name)
    preset = resolve_dynamics(args.dynamics, preset)
    preset = _overridden(
        preset,
        scheduler=args.scheduler,
        seed=args.seed,
        scale=args.scale,
        dataplane=False if args.no_dataplane else None,
        placement=False if args.no_placement else None,
        workflows=args.workflows,
        arbitration=args.arbitration,
        workflow_stagger_s=args.stagger,
        checkpoint_interval_s=args.checkpoint_interval,
    )
    scenario_id = _effective_id(
        args.name, args.scheduler, args.dynamics, args.workflows, args.arbitration
    )
    snapshot_path = None
    if args.snapshot_at is not None:
        snapshot_path = args.snapshot_path or str(Path(args.out) / f"SNAP_{scenario_id}.snap")
    durability = DurabilityOptions(
        snapshot_at=args.snapshot_at,
        snapshot_path=snapshot_path,
        restore_from=args.restore_from,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.restore_from is not None:
        # The restored run writes its own artifact next to the capture run's
        # so check-replay can compare the two.
        scenario_id += "-restored"
    result = run_scenario(
        preset, max_wall_time_s=args.max_wall_time, durability=durability
    )
    path = _write_bench(result, Path(args.out), scenario_id)
    _print_result(result, path)
    if snapshot_path is not None:
        print(f"snapshot            : {snapshot_path}")
    return 0


def _cmd_check_replay(args: argparse.Namespace) -> int:
    """Compare a snapshot run's artifact with a restored run's artifact."""
    try:
        bench_a = json.loads(Path(args.bench_a).read_text())
        bench_b = json.loads(Path(args.bench_b).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read artifact: {exc}", file=sys.stderr)
        return 2
    failures: List[str] = []
    snapshot = bench_a.get("durability", {}).get("snapshot")
    restore = bench_b.get("durability", {}).get("restore")
    if snapshot is None:
        failures.append(
            f"{args.bench_a} has no durability.snapshot section "
            "(was the run given --snapshot-at?)"
        )
    if restore is None:
        failures.append(
            f"{args.bench_b} has no durability.restore section "
            "(was the run given --restore-from?)"
        )
    if snapshot is not None and restore is not None:
        if snapshot["payload_sha256"] != restore["payload_sha256"]:
            failures.append(
                "the restored run loaded a different snapshot file "
                f"({restore['payload_sha256'][:16]}… != {snapshot['payload_sha256'][:16]}…)"
            )
        if snapshot["tail_entries"] != restore["tail_entries"]:
            failures.append(
                f"post-cut event counts differ: snapshot run logged "
                f"{snapshot['tail_entries']}, restored run {restore['tail_entries']}"
            )
        if snapshot["tail_digest"] != restore["tail_digest"]:
            failures.append(
                "post-cut event logs diverge: tail digest "
                f"{restore['tail_digest'][:16]}… != {snapshot['tail_digest'][:16]}…"
            )
    if bench_a.get("determinism_digest") != bench_b.get("determinism_digest"):
        failures.append("full-run determinism digests differ")
    if bench_a.get("metrics") != bench_b.get("metrics"):
        failures.append("end-of-run metrics differ")
    if failures:
        print(f"replay check FAILED ({args.bench_a} vs {args.bench_b}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"replay check OK: cut at {restore['verified_at_s']:g}s, "
        f"{restore['replayed_entries']} events replayed + verified, "
        f"{restore['tail_entries']} tail events byte-identical "
        f"(digest {restore['tail_digest'][:16]}…)"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    preset = get_scenario(args.name)
    preset = resolve_dynamics(args.dynamics, preset)
    if args.arbitrations is not None:
        return _compare_arbitrations(args, preset)
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    if not schedulers:
        print("error: --schedulers needs at least one name", file=sys.stderr)
        return 2
    results: List[ScenarioResult] = []
    for scheduler in schedulers:
        spec = _overridden(
            preset,
            scheduler=scheduler,
            seed=args.seed,
            dataplane=False if args.no_dataplane else None,
            placement=False if args.no_placement else None,
            workflows=args.workflows,
        )
        result = run_scenario(spec, max_wall_time_s=args.max_wall_time)
        scenario_id = _effective_id(args.name, scheduler, args.dynamics, args.workflows)
        _write_bench(result, Path(args.out), scenario_id)
        results.append(result)

    print(f"scenario: {args.name}   seed: {results[0].seed}")
    header = f"{'SCHEDULER':<12} {'MAKESPAN':>10} {'STAGED MB':>10} {'RETRIES':>8} " \
             f"{'RESCHED':>8} {'UTIL %':>7} {'FAILED':>7}"
    print(header)
    best = min(r.makespan_s for r in results)
    for result in results:
        marker = " *" if result.makespan_s == best else ""
        print(
            f"{result.scheduler:<12} {result.makespan_s:>9.1f}s {result.staged_mb:>10.1f} "
            f"{result.retries:>8} {result.rescheduled_tasks:>8} "
            f"{result.mean_utilization_pct:>7.1f} {result.failed_tasks:>7}{marker}"
        )
    return 0


def _compare_arbitrations(args: argparse.Namespace, preset) -> int:
    """``compare NAME --arbitrations fifo,fair_share`` — policy face-off."""
    policies = [p.strip() for p in args.arbitrations.split(",") if p.strip()]
    if not policies:
        print("error: --arbitrations needs at least one policy", file=sys.stderr)
        return 2
    if (args.workflows or preset.workflows) < 2 and preset.streaming is None:
        print("error: comparing arbitration policies needs --workflows >= 2 "
              "(or a multi-workflow / streaming preset)", file=sys.stderr)
        return 2
    results: List[ScenarioResult] = []
    for policy in policies:
        spec = _overridden(
            preset,
            scheduler=args.scheduler if hasattr(args, "scheduler") else None,
            seed=args.seed,
            dataplane=False if args.no_dataplane else None,
            placement=False if args.no_placement else None,
            workflows=args.workflows,
            arbitration=policy,
        )
        result = run_scenario(spec, max_wall_time_s=args.max_wall_time)
        scenario_id = _effective_id(
            args.name, None, args.dynamics, args.workflows, policy
        )
        _write_bench(result, Path(args.out), scenario_id)
        results.append(result)

    if results[0].streaming:
        print(f"scenario: {args.name}   seed: {results[0].seed}   "
              f"arrivals: {results[0].streaming['arrivals']}")
        header = f"{'ARBITRATION':<12} {'THRU/S':>8} {'P95 WAIT':>10} {'MISS %':>8} " \
                 f"{'ABAND %':>8} {'REJECTED':>9}"
        print(header)
        best = min(r.streaming["deadline_miss_rate"] for r in results)
        for result in results:
            streaming = result.streaming
            marker = " *" if streaming["deadline_miss_rate"] == best else ""
            print(
                f"{streaming['policy']:<12} {streaming['throughput_per_s']:>8.3f} "
                f"{streaming['wait_p95_s']:>9.1f}s "
                f"{100.0 * streaming['deadline_miss_rate']:>7.1f} "
                f"{100.0 * streaming['abandonment_rate']:>7.1f} "
                f"{streaming['rejected']:>9}{marker}"
            )
        return 0
    print(f"scenario: {args.name}   seed: {results[0].seed}   "
          f"workflows: {results[0].serving['workflow_count']}")
    header = f"{'ARBITRATION':<12} {'MAKESPAN':>10} {'P95 WAIT':>10} {'JAIN':>7} " \
             f"{'STAGED MB':>10} {'FAILED':>7}"
    print(header)
    best = min(r.serving["wait_p95_s"] for r in results)
    for result in results:
        serving = result.serving
        marker = " *" if serving["wait_p95_s"] == best else ""
        print(
            f"{serving['policy']:<12} {result.makespan_s:>9.1f}s "
            f"{serving['wait_p95_s']:>9.1f}s {serving['jain_fairness']:>7.3f} "
            f"{result.staged_mb:>10.1f} {result.failed_tasks:>7}{marker}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative federated-FaaS scenarios (workload x topology "
                    "x scheduler x dynamics) and emit machine-readable BENCH artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="list the preset registry").set_defaults(
        func=_cmd_list
    )

    sub.add_parser(
        "list-workflows",
        help="list every workload kind a scenario can name (static and authored)",
    ).set_defaults(func=_cmd_list_workflows)

    run = sub.add_parser("run-scenario", help="run one scenario preset")
    run.add_argument("name", help="preset name (see list-scenarios)")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--scheduler", choices=sorted(SCHEDULER_ALIASES), default=None,
                     help="override the preset's scheduler")
    run.add_argument("--dynamics", choices=["none", "churn", "crash", "chaos"], default=None,
                     help="override the preset's dynamics regime")
    run.add_argument("--scale", type=float, default=None,
                     help="override the workload scale fraction")
    run.add_argument("--no-dataplane", action="store_true",
                     help="run the data plane under the paper's published staging "
                          "policy (unbounded store, FIFO links, no prefetch); event "
                          "digests match the pre-data-plane engine")
    run.add_argument("--no-placement", action="store_true",
                     help="run without the global placement plan (greedy scheduler / "
                          "scaler / data plane only); determinism digests match the "
                          "pre-placement engine")
    run.add_argument("--workflows", type=int, default=None,
                     help="run N concurrent instances of the workload through the "
                          "multi-workflow serving layer (default: the preset's count)")
    run.add_argument("--arbitration", choices=["fifo", "fair_share", "priority", "edf"],
                     default=None,
                     help="cross-workflow arbitration policy (multi-workflow and "
                          "streaming runs)")
    run.add_argument("--stagger", type=float, default=None,
                     help="arrival stagger between consecutive workflows (sim seconds)")
    run.add_argument("--snapshot-at", type=float, default=None,
                     help="capture a durability snapshot at this simulated time "
                          "(written to --snapshot-path, default SNAP_<id>.snap "
                          "under --out)")
    run.add_argument("--snapshot-path", default=None,
                     help="file the --snapshot-at snapshot is written to")
    run.add_argument("--restore-from", default=None,
                     help="replay from t=0, verify the full serving state against "
                          "this snapshot at its cut, and continue — the artifact "
                          "gets a '-restored' id suffix for check-replay")
    run.add_argument("--checkpoint-interval", type=float, default=None,
                     help="override the preset's periodic-checkpoint cadence "
                          "(simulated seconds)")
    run.add_argument("--checkpoint-dir", default=None,
                     help="directory for periodic ckpt-*.snap files (default: a "
                          "temporary directory removed after the run)")
    run.add_argument("--out", default=".", help="directory for BENCH_<id>.json (default: cwd)")
    run.add_argument("--max-wall-time", type=float, default=600.0,
                     help="wall-clock budget for the run (seconds)")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="run one scenario under several schedulers")
    compare.add_argument("name", help="preset name (see list-scenarios)")
    compare.add_argument("--schedulers", default="dha,heft,locality",
                         help="comma-separated scheduler names (default: dha,heft,locality)")
    compare.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    compare.add_argument("--dynamics", choices=["none", "churn", "crash", "chaos"],
                         default=None, help="override the preset's dynamics regime")
    compare.add_argument("--no-dataplane", action="store_true",
                         help="run the data plane under the paper's published policy")
    compare.add_argument("--no-placement", action="store_true",
                         help="run without the global placement plan")
    compare.add_argument("--workflows", type=int, default=None,
                         help="run N concurrent workload instances per run")
    compare.add_argument("--arbitrations", default=None,
                         help="comma-separated arbitration policies to compare "
                              "(e.g. fifo,fair_share,priority,edf) instead of "
                              "schedulers; needs a multi-workflow or streaming "
                              "preset, or --workflows >= 2")
    compare.add_argument("--out", default=".", help="directory for BENCH artifacts")
    compare.add_argument("--max-wall-time", type=float, default=600.0,
                         help="wall-clock budget per run (seconds)")
    compare.set_defaults(func=_cmd_compare)

    check = sub.add_parser(
        "check-replay",
        help="verify a --restore-from artifact against its --snapshot-at artifact",
    )
    check.add_argument("bench_a", help="BENCH artifact of the --snapshot-at run")
    check.add_argument("bench_b", help="BENCH artifact of the --restore-from run")
    check.set_defaults(func=_cmd_check_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, SnapshotError, _Refused) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
