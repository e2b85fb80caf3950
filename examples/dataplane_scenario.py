#!/usr/bin/env python3
"""The data-plane subsystem: replica store, transfer scheduler, prefetcher.

Runs a data-plane preset (``storage-pressure`` or ``hot-dataset``) twice —
once under the data plane's full policy and once under its published one,
the paper's FIFO staging (``--no-dataplane``) — and prints what the subsystem did: bytes moved,
cache hit rate, evictions under the per-endpoint storage budgets, and how
much of the prefetch pipeline's speculation demand staging actually used.

The same comparison is available from the command line::

    python -m repro run-scenario storage-pressure
    python -m repro run-scenario storage-pressure --no-dataplane
    python -m repro run-scenario hot-dataset --seed 3

This script shows the Python API: take a preset, flip
``ScenarioSpec.enable_dataplane`` (and, if you like, ``storage_gb`` or
``eviction_policy``), and execute both variants with
:func:`~repro.scenarios.spec.run_scenario`.
"""

import argparse
import dataclasses

from repro.core.functions import set_current_client
from repro.scenarios import get_scenario, run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="storage-pressure",
                        choices=["storage-pressure", "hot-dataset"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    preset = get_scenario(args.scenario).with_overrides(seed=args.seed)
    print(f"scenario: {preset.name} — {preset.description}")
    budgets = ", ".join(
        f"{e.name}={e.storage_gb or preset.storage_gb or 'inf'} GB" for e in preset.topology
    )
    print(f"storage budgets: {budgets}   eviction: {preset.eviction_policy}\n")

    with_plane = run_scenario(preset)
    set_current_client(None)
    without = run_scenario(dataclasses.replace(preset, enable_dataplane=False))
    set_current_client(None)

    for label, result in (("data plane", with_plane), ("FIFO (paper §IV-E)", without)):
        print(
            f"{label:<20} makespan {result.makespan_s:7.1f} s   "
            f"completed {result.completed_tasks}/{result.total_tasks}   "
            f"staged {result.staged_mb:8.1f} MB"
        )

    stats = with_plane.dataplane
    print("\ndata-plane counters:")
    print(f"  cache hit rate       : {stats['cache_hit_rate']:.1%} "
          f"({stats['cache_hits']} hits / {stats['cache_misses']} misses)")
    print(f"  evictions            : {stats['evictions']} "
          f"({stats['evicted_mb'] / 1024:.2f} GB reclaimed)")
    print(f"  prefetches issued    : {stats['prefetch_issued']} "
          f"(usefulness {stats['prefetch_usefulness']:.0%}, "
          f"wasted {stats['prefetch_wasted']})")
    print(f"  cancelled transfers  : {stats['cancelled_transfers']}   "
          f"superseded tickets: {stats['superseded_tickets']}")
    print(f"  peak budget overflow : {stats['peak_overflow_mb']:.1f} MB")


if __name__ == "__main__":
    main()
