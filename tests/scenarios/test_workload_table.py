"""One workload table: every ``WorkloadSpec.kind`` resolves through the
authoring registry, static generators and authored workflows alike."""

import importlib.util
from pathlib import Path

import pytest

from repro.authoring.api import Job
from repro.authoring.registry import get_workflow, registered_names
from repro.authoring.zoo import LAYERED
from repro.scenarios.presets import SCENARIOS, paper_spec
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec, run_scenario

from tests.integration.conftest import build_two_site_env

E2E_WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"

STATIC_KINDS = ("drug_screening", "hot_dataset", "montage", "stress")

#: One CI-scale sizing for every kind: each entry reads the knobs it needs.
CI_SCALE = dict(
    scale=0.002,
    task_count=24,
    duration_s=0.5,
    output_mb=1.0,
    layer_width=4,
    shared_files=2,
    shared_mb=4.0,
)


def _e2e_specs():
    module_spec = importlib.util.spec_from_file_location("e2e_workloads", E2E_WORKLOADS)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return [module.build_spec(name) for name in sorted(module.BUILDERS)]


def _named_specs():
    specs = list(SCENARIOS.values())
    specs += [
        paper_spec(workflow, regime)
        for workflow in ("drug_screening", "montage")
        for regime in ("static", "baseline", "dynamic")
    ]
    return specs + _e2e_specs()


def test_every_named_kind_resolves_through_the_table():
    kinds = {spec.workload.kind for spec in _named_specs()}
    assert set(STATIC_KINDS) | {"layered", "zoo-array", "zoo-mixed"} <= kinds
    for kind in sorted(kinds):
        entry = get_workflow(kind)
        assert entry.name == kind
        assert entry.description
        assert WorkloadSpec(kind=kind)._entry() is entry


def test_the_static_generators_are_entries():
    for kind in STATIC_KINDS:
        assert get_workflow(kind).definition is None
    for kind in ("layered", "zoo-conditional", "zoo-convergence", "zoo-array", "zoo-mixed"):
        assert get_workflow(kind).definition is not None
    assert set(STATIC_KINDS) <= set(registered_names())


@pytest.mark.parametrize("kind", registered_names())
def test_submitted_types_are_pretrained(kind):
    spec = WorkloadSpec(kind=kind, **CI_SCALE)
    entry = get_workflow(kind)
    pretrained = [t.name for t in entry.task_types(spec)]
    assert len(pretrained) == len(set(pretrained))
    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    submitted = set()
    submit = client.submit

    def spy(function, args, kwargs):
        submitted.add(function.name)
        return submit(function, args, kwargs)

    client.submit = spy
    info = entry.build(client, spec)
    client.run(max_wall_time_s=120.0)
    assert submitted
    assert submitted == set(info.tasks_by_type)
    assert submitted <= set(pretrained)
    if kind in STATIC_KINDS:
        assert submitted == set(pretrained)


def test_pretraining_builds_the_first_tenants_instantiation(monkeypatch):
    # The instantiation task_types() builds is the one the first tenant
    # runs: a cohort of four declares each job four times, not five.
    params = {"task_count": 30, "layer_width": 6, "duration_s": 1.0, "output_mb": 1.0}
    per_instantiation = len(LAYERED.instantiate(**params))
    calls = []
    init = Job.__init__

    def counting(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Job, "__init__", counting)
    base = SCENARIOS["ci-smoke"]
    spec = ScenarioSpec(
        name="cohort",
        description="four layered tenants",
        workload=WorkloadSpec(kind="layered", **params),
        topology=base.topology,
        workflows=4,
    )
    assert spec.seed_knowledge
    result = run_scenario(spec)
    assert result.completed_tasks == 4 * per_instantiation
    assert len(calls) == 4 * per_instantiation
