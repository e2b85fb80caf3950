"""The ``"paper"`` substrate: the paper's case studies as scenario specs.

Tables IV-V and Figs. 9-13 run on :func:`repro.scenarios.presets.paper_spec`
specs through the one runner; their outcomes are pinned in
``tests/golden/case_studies.json`` by the Table IV/V and ablation
benchmarks.  These tests hold the substrate's own rules: what a paper spec
may not say, and how its capacity schedules, mocking switch and metrics
reach the run.
"""

import dataclasses

import pytest

from repro.faas.endpoint import CapacityChange, SimulatedEndpoint
from repro.scenarios.presets import SCENARIOS, paper_spec
from repro.scenarios.spec import EndpointSpec, _build_environment, run_scenario
from repro.serving import Federation


def test_the_paper_presets_are_case_study_runs():
    assert SCENARIOS["paper-static-montage"] == paper_spec("montage", "static", scale=0.05)
    assert SCENARIOS["paper-dynamic-drug"] == paper_spec("drug_screening", "dynamic", scale=0.08)


@pytest.mark.parametrize(
    "endpoint",
    [
        EndpointSpec(name="workstation", cluster="workstation"),  # not one of the four sites
        EndpointSpec(name="site_a", cluster="taiyi"),  # not named for its site
        EndpointSpec(name="taiyi", cluster="lab"),
    ],
)
def test_a_paper_spec_runs_only_the_four_testbed_sites(endpoint):
    spec = paper_spec("montage")
    with pytest.raises(ValueError, match="paper substrate runs Table II's sites"):
        dataclasses.replace(spec, topology=spec.topology[:2] + (endpoint,))


@pytest.mark.parametrize("field", [{"network_profile": "tiered"}, {"bandwidth_mbps": 80.0}])
def test_a_paper_spec_keeps_the_testbed_network(field):
    with pytest.raises(ValueError, match="network is the testbed's"):
        dataclasses.replace(paper_spec("montage"), **field)


def test_an_unknown_substrate_is_refused_when_built():
    spec = dataclasses.replace(SCENARIOS["ci-smoke"], substrate="cloud")
    with pytest.raises(ValueError, match="unknown substrate 'cloud'"):
        run_scenario(spec)


def test_capacity_changes_feed_the_endpoint_schedule_not_the_dynamics(monkeypatch):
    scheduled = {}
    monkeypatch.setattr(
        SimulatedEndpoint, "set_capacity_schedule",
        lambda self, changes: scheduled.setdefault(self.name, list(changes)),
    )
    spec = paper_spec("drug_screening", "dynamic", scale=0.08)
    env, _ = _build_environment(spec, spec.seed)
    assert scheduled == {
        "taiyi": [CapacityChange(540.0, -22)], "qiming": [CapacityChange(120.0, 48)]
    }
    assert spec.dynamics.compile(list(env.endpoints), env.rng.stream("dynamics")) == []


def test_the_substrate_sets_sampling_and_the_mocking_switch_reaches_the_monitor():
    spec = dataclasses.replace(paper_spec("montage", scale=0.01), endpoint_mocking=False)
    env, config = _build_environment(spec, spec.seed)
    assert config.metrics_sample_interval_s == 20.0
    assert not Federation(config, env.fabric).endpoint_monitor.mocking_enabled
    _, config = _build_environment(SCENARIOS["ci-smoke"], 0)
    assert config.metrics_sample_interval_s == 5.0 and config.enable_endpoint_mocking


def test_only_a_lone_tenant_exposes_its_metrics():
    spec = SCENARIOS["ci-smoke"]
    result = run_scenario(spec)
    assert result.metrics.completed_count == result.completed_tasks
    assert result.metrics.sample_interval_s == 5.0 and len(result.metrics.utilization)
    assert result.to_json() == dataclasses.replace(result, metrics=None).to_json()
    assert run_scenario(spec.with_overrides(workflows=2)).metrics is None
