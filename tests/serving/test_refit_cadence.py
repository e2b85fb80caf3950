"""The shared profilers are refit on one federation cadence (§IV-C).

The execution and transfer models are one per function and per link, fed by
every tenant, so their periodic retrain belongs to the run loop, not to each
tenant: ``profiler_update_interval_s`` apart however many tenants are active,
and at the same instants as before for a single tenant.
"""

import math

import pytest

from repro.profiling.execution import ExecutionProfiler
from repro.scenarios.presets import SCENARIOS
from repro.scenarios.spec import run_scenario
from repro.serving.manager import WorkflowManager


def refit_times(monkeypatch, name):
    """Run preset ``name``; return its result, the clock time of every
    periodic refit (warm starts and seeding call ``update_models(force=True)``)
    and the refit interval."""
    running = []
    times = []
    run = WorkflowManager.run
    update_models = ExecutionProfiler.update_models

    def spy_run(self, *args, **kwargs):
        running.append(self)
        return run(self, *args, **kwargs)

    def spy_update_models(self, force=False):
        if not force:
            times.append(running[-1].federation.clock.now)
        return update_models(self, force)

    monkeypatch.setattr(WorkflowManager, "run", spy_run)
    monkeypatch.setattr(ExecutionProfiler, "update_models", spy_update_models)
    result = run_scenario(SCENARIOS[name])
    return result, times, running[-1].federation.config.profiler_update_interval_s


def test_a_stream_of_tenants_refits_once_per_interval(monkeypatch):
    result, times, interval = refit_times(monkeypatch, "stream-overload")
    assert times, "the stream ran past one refit interval"
    # With a refit timer per tenant, every tenant admitted after the first
    # interval refit the shared models on its first check: 65 calls at 35
    # instants, some 0.2 s apart.
    assert all(b - a >= interval for a, b in zip(times, times[1:]))
    assert len(times) <= math.floor(result.makespan_s / interval) + 1


# The instants a refit timer per tenant gave.  A single tenant's refits cannot
# move; multi-tenant's two tenants both refit at 30.0 (the second found
# nothing new to train on), and the one federation refit lands there too.
@pytest.mark.parametrize(
    "name, instants",
    [
        ("ci-smoke", []),
        ("multi-tenant", [30.0]),
        (
            "chaos-network-brownout",
            [
                30.0,
                88.12453256704981,
                150.0,
                181.42332567049806,
                402.714877394636,
                444.38918773946364,
            ],
        ),
    ],
)
def test_refit_instants_are_unchanged(monkeypatch, name, instants):
    _, times, _ = refit_times(monkeypatch, name)
    assert sorted(set(times)) == instants
