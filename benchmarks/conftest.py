"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The workflows
are scaled down (``REPRO_BENCH_SCALE``, default 5 % of the paper's task
counts, with worker deployments scaled by the same factor) so the whole suite
finishes in a few minutes; pass ``REPRO_BENCH_SCALE=1.0`` to run the
paper-sized workloads.

The static and dynamic case studies are executed once per session and shared
between the Table IV/V benchmarks and the Figs. 9–13 benchmarks.

At the default scales and seed, the Table IV/V and ablation benchmarks also
hold every run they make to ``tests/golden/case_studies.json``: makespan,
GB moved, tasks per endpoint, rescheduled count and a SHA-256 over each
metric time series, recorded once and never edited.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.experiments.case_studies import (
    run_dynamic_capacity_study,
    run_static_capacity_study,
)

#: Fraction of the paper's workload/deployment sizes used by default.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
#: The dynamic study needs a slightly larger scale for the re-scheduling pool
#: to be non-trivial (README.md, "Tests and benchmarks", lists the scales).
DYNAMIC_BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE_DYNAMIC", "0.08"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
#: The pins hold only at the default scales and seed.
PINNED = not any(
    name.startswith("REPRO_BENCH_SCALE") or name == "REPRO_BENCH_SEED" for name in os.environ
)
PIN_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "case_studies.json"

_static_cache = {}
_dynamic_cache = {}


def static_study(workflow: str):
    """Cached Table IV study for ``workflow`` (runs once per session)."""
    if workflow not in _static_cache:
        _static_cache[workflow] = run_static_capacity_study(
            workflow, scale=BENCH_SCALE, seed=BENCH_SEED
        )
    return _static_cache[workflow]


def dynamic_study(workflow: str):
    """Cached Table V study for ``workflow`` (runs once per session)."""
    if workflow not in _dynamic_cache:
        _dynamic_cache[workflow] = run_dynamic_capacity_study(
            workflow, scale=DYNAMIC_BENCH_SCALE, seed=BENCH_SEED
        )
    return _dynamic_cache[workflow]


def _series_sha256(series) -> str:
    return hashlib.sha256(repr(list(zip(series.times, series.values))).encode()).hexdigest()


def case_study_pin(result) -> dict:
    """What the pin file records of one case-study run."""
    series = {
        "utilization": result.utilization,
        "staging_tasks": result.staging_tasks,
        "rescheduled": result.rescheduled_series,
    }
    for endpoint in sorted(result.active_workers):
        series[f"active_workers/{endpoint}"] = result.active_workers[endpoint]
    return {
        "makespan_s": result.makespan_s,
        "transfer_size_gb": result.transfer_size_gb,
        "tasks_per_endpoint": dict(sorted(result.tasks_per_endpoint.items())),
        "rescheduled_tasks": result.rescheduled_tasks,
        "series_sha256": {name: _series_sha256(s) for name, s in series.items()},
    }


def assert_pinned(group: str, results) -> None:
    """Each of ``results`` (name -> case-study result) equals its pin."""
    if not PINNED:
        return
    pins = json.loads(PIN_PATH.read_text())
    for name, result in results.items():
        key = f"{group}/{name}"
        assert case_study_pin(result) == pins[key], key


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE
