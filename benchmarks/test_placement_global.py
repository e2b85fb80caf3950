"""Global placement benchmark: the facility-location plan vs pure-greedy DHA.

Runs the two presets whose structure the optimizer targets:

* **hot-dataset** — six 96 MB shared files on a weak datastore edge site,
  144 consumers each reading a co-accessed pair over a tiered WAN.  Greedy
  per-task DHA splits each file's consumers across both compute sites, so
  every file crosses the WAN twice; the plan roots co-accessed pairs
  together and the root-affinity steering keeps their consumers there, so
  each file moves (at most) once.
* **multi-tenant** — four tenants' layered DAGs on a three-site federation;
  the plan's warm set keeps small intermediate traffic off the endpoint
  that is not worth keeping warm.

The headline gate, per preset: the plan cuts makespan or bytes-moved by
≥ 10 % versus ``--no-placement`` greedy DHA while the other metric regresses
by no more than 2 % — and the plan runs are byte-deterministic (identical
determinism digests across repeats; both presets also reproduce their golden
digests on the scalar reference schedulers in
``tests/scenarios/test_reference_runs.py``).
"""

import dataclasses

import pytest

from repro.core.functions import set_current_client
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import run_scenario

#: Per-preset improvement floor / regression ceiling of the headline gate.
MIN_CUT = 0.10
MAX_REGRESSION = 0.02

PRESETS = ("hot-dataset", "multi-tenant")


def _run(name: str, placement: bool):
    set_current_client(None)
    spec = get_scenario(name)
    if not placement:
        spec = dataclasses.replace(spec, enable_placement=False)
    try:
        return run_scenario(spec)
    finally:
        set_current_client(None)


def _gate(plan_result, greedy_result) -> dict:
    makespan_change = plan_result.makespan_s / greedy_result.makespan_s - 1.0
    plan_bytes = float(plan_result.dataplane["bytes_moved_mb"])
    greedy_bytes = float(greedy_result.dataplane["bytes_moved_mb"])
    bytes_change = (
        plan_bytes / greedy_bytes - 1.0 if greedy_bytes > 0 else 0.0
    )
    return {
        "greedy_makespan_s": round(greedy_result.makespan_s, 6),
        "plan_makespan_s": round(plan_result.makespan_s, 6),
        "makespan_change": round(makespan_change, 4),
        "greedy_bytes_mb": greedy_bytes,
        "plan_bytes_mb": plan_bytes,
        "bytes_change": round(bytes_change, 4),
    }


@pytest.mark.parametrize("name", PRESETS)
def test_placement_plan_beats_pure_greedy(name, benchmark):
    def comparison():
        greedy = _run(name, placement=False)
        plan = _run(name, placement=True)
        return greedy, plan

    greedy, plan = benchmark.pedantic(comparison, rounds=1, iterations=1)

    assert greedy.failed_tasks == 0
    assert plan.failed_tasks == 0
    assert plan.completed_tasks == greedy.completed_tasks

    info = _gate(plan, greedy)
    benchmark.extra_info.update(info)

    makespan_cut = info["makespan_change"] <= -MIN_CUT
    bytes_cut = info["bytes_change"] <= -MIN_CUT
    assert makespan_cut or bytes_cut, (
        f"{name}: plan cut neither metric by {MIN_CUT:.0%}: {info}"
    )
    # The winning metric must not buy its cut with the other one.
    assert info["makespan_change"] <= MAX_REGRESSION, info
    assert info["bytes_change"] <= MAX_REGRESSION, info


@pytest.mark.parametrize("name", PRESETS)
def test_plan_runs_are_byte_deterministic(name):
    first = _run(name, placement=True)
    second = _run(name, placement=True)
    assert first.determinism_digest == second.determinism_digest
    assert first.to_json() == second.to_json()
