"""Multi-workflow (serving-layer) scenario tests.

Covers the serving presets' determinism, the serving payload of the BENCH
artifact, and — under the ``churn`` dynamics timeline — the elasticity and
staging bugfix regressions (proportional scale-out requests and the
published staging policy's retry / supersede behaviour).
"""

import dataclasses

import pytest

from repro.scenarios.presets import SCENARIOS, get_scenario, scenario_names, standard_dynamics
from repro.scenarios.spec import _build_environment, run_scenario
from repro.serving import Federation, WorkflowManager


class TestOneCompositionSurface:
    """A tenant handle exposes what workload builders read off a client."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_preset_workload_builds_through_a_workflow_handle(self, name):
        spec = SCENARIOS[name]
        env, config = _build_environment(spec, spec.seed)
        manager = WorkflowManager(
            Federation(config, env.fabric, transfer_backend=env.transfer_backend)
        )
        handle = manager.add_workflow("wf0")
        info = spec.workload.build(handle)
        assert info.task_count == len(handle.graph) > 0
        assert all(task.task_id.startswith("wf0/") for task in handle.graph)

    def test_paper_montage_runs_as_two_tenants(self):
        # `run-scenario paper-static-montage --workflows 2` used to die on
        # `client.config`: the montage builder reads the config off the handle.
        spec = get_scenario("paper-static-montage").with_overrides(workflows=2)
        result = run_scenario(spec, max_wall_time_s=120)
        assert result.completed_tasks == result.total_tasks > 0
        assert set(result.serving["workflows"]) == {"wf0", "wf1"}


class TestServingPresets:
    def test_multi_tenant_preset_runs_clean(self):
        result = run_scenario(get_scenario("multi-tenant"), max_wall_time_s=120)
        assert result.completed_tasks == result.total_tasks == 4 * 80
        assert result.failed_tasks == 0
        serving = result.serving
        assert serving["policy"] == "fair_share"
        assert serving["workflow_count"] == 4
        assert set(serving["workflows"]) == {"wf0", "wf1", "wf2", "wf3"}
        # Staggered arrivals actually staggered.
        arrivals = [serving["workflows"][w]["arrival_s"] for w in sorted(serving["workflows"])]
        assert arrivals == [0.0, 10.0, 20.0, 30.0]
        # Per-tenant fields are populated.
        for wf in serving["workflows"].values():
            assert wf["completed_tasks"] == 80
            assert wf["makespan_s"] > 0
            assert wf["event_digest"]

    def test_multi_tenant_preset_is_byte_deterministic(self):
        spec = get_scenario("multi-tenant")
        first = run_scenario(spec, max_wall_time_s=120)
        second = run_scenario(spec, max_wall_time_s=120)
        assert first.to_json() == second.to_json()
        assert first.determinism_digest == second.determinism_digest

    def test_tenant_storm_priority_ladder_under_churn(self):
        result = run_scenario(get_scenario("tenant-storm"), max_wall_time_s=120)
        assert result.completed_tasks == result.total_tasks == 8 * 60
        serving = result.serving
        assert serving["policy"] == "priority"
        # Earlier tenants carry higher strict priority: their mean waits
        # ascend with tenant index even while churn shakes the capacity.
        waits = [serving["workflows"][f"wf{i}"]["wait_mean_s"] for i in range(8)]
        assert waits[0] < waits[-1]

    def test_single_workflow_artifacts_carry_no_serving_key(self):
        result = run_scenario(get_scenario("ci-smoke"), max_wall_time_s=120)
        assert result.serving == {}
        assert '"serving"' not in result.to_json()

    def test_arbitration_override_changes_allocation_not_work(self):
        spec = get_scenario("tenant-storm")
        fifo = run_scenario(
            spec.with_overrides(arbitration="fifo"), max_wall_time_s=120
        )
        prio = run_scenario(spec, max_wall_time_s=120)
        assert fifo.completed_tasks == prio.completed_tasks
        assert fifo.serving["policy"] == "fifo"


class TestBugfixesUnderChurn:
    """The PR's satellite bugfixes, exercised end-to-end on the churn timeline."""

    def test_elastic_scale_out_under_churn_completes_deterministically(self):
        # DefaultScalingStrategy's proportional split (the fixed decide())
        # drives scale-out while churn keeps changing capacity under it.
        base = get_scenario("ci-smoke")
        spec = dataclasses.replace(
            base,
            name="ci-smoke-elastic-churn",
            enable_scaling=True,
            dynamics=standard_dynamics("churn"),
            topology=tuple(
                dataclasses.replace(endpoint, workers=4)
                for endpoint in base.topology
            ),
        )
        first = run_scenario(spec, max_wall_time_s=120)
        second = run_scenario(spec, max_wall_time_s=120)
        assert first.completed_tasks == first.total_tasks
        assert first.failed_tasks == 0
        assert first.determinism_digest == second.determinism_digest

    def test_legacy_fifo_staging_under_churn_completes_deterministically(self):
        # --no-dataplane runs the data plane's published (FIFO) policy, with
        # its retry re-pick and supersede suppression; churn plus DHA
        # re-scheduling exercises re-placement (ticket supersede) paths.
        base = get_scenario("chaos-churn-dha")
        spec = dataclasses.replace(
            base, name="churn-fifo-staging", enable_dataplane=False
        )
        first = run_scenario(spec, max_wall_time_s=180)
        second = run_scenario(spec, max_wall_time_s=180)
        assert first.completed_tasks == first.total_tasks
        assert first.determinism_digest == second.determinism_digest

    def test_multi_tenant_survives_churn_dynamics(self):
        spec = dataclasses.replace(
            get_scenario("multi-tenant"),
            name="multi-tenant-churn",
            dynamics=standard_dynamics("churn"),
        )
        first = run_scenario(spec, max_wall_time_s=180)
        second = run_scenario(spec, max_wall_time_s=180)
        assert first.completed_tasks == first.total_tasks
        assert first.failed_tasks == 0
        assert first.to_json() == second.to_json()
        assert len(first.dynamics_fired) > 0
