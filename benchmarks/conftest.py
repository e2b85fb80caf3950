"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  The workflows
are scaled down (``REPRO_BENCH_SCALE``, default 5 % of the paper's task
counts, with worker deployments scaled by the same factor) so the whole suite
finishes in a few minutes; pass ``REPRO_BENCH_SCALE=1.0`` to run the
paper-sized workloads.

The static and dynamic case studies are executed once per session and shared
between the Table IV/V benchmarks and the Figs. 9–13 benchmarks.
"""

import os

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


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE
