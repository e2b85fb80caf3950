"""Tests for the workload generators."""

import pytest

from repro.core.functions import set_current_client
from repro.workloads.drug_screening import (
    DRUG_SCREENING_TYPES,
    FULL_SCALE_BATCHES,
    build_drug_screening_workflow,
)
from repro.workloads.montage import FULL_SCALE_IMAGES, MONTAGE_TYPES, build_montage_workflow
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo, make_task_type
from repro.workloads.synthetic import build_stress_workload

from tests.integration.conftest import build_two_site_env


@pytest.fixture(autouse=True)
def clean_context():
    set_current_client(None)
    yield
    set_current_client(None)


def make_client():
    env = build_two_site_env(workers_a=8, workers_b=8)
    return env, env.make_client(env.make_config("DHA"))


class TestSpec:
    def test_task_type_profile(self):
        spec = TaskTypeSpec(name="dock", duration_s=300.0, output_mb=30.0)
        profile = spec.to_profile()
        assert profile.base_time_s == 300.0
        assert profile.output_base_mb == 30.0
        fn = make_task_type(spec)
        assert fn.name == "dock"

    def test_workload_info_accumulates(self):
        info = WorkloadInfo(name="x")
        from repro.core.futures import UniFuture

        info.register(UniFuture("t1"), "a")
        info.register(UniFuture("t2"), "a")
        info.register(UniFuture("t3"), "b")
        assert info.task_count == 3
        assert [f.task_id for f in info.futures] == ["t1", "t2", "t3"]
        assert info.tasks_by_type == {"a": 2, "b": 1}


class TestDrugScreening:
    def test_task_count_structure(self):
        env, client = make_client()
        info = build_drug_screening_workflow(client, scale=10 / FULL_SCALE_BATCHES)
        assert info.task_count == 1 + 6 * 10
        assert len(client.graph) == info.task_count
        assert info.tasks_by_type["dock"] == 10
        assert info.tasks_by_type["prepare_receptor"] == 1

    def test_full_scale_matches_paper(self):
        # Do not build the full DAG here; just verify the arithmetic.
        assert 1 + 6 * FULL_SCALE_BATCHES == 24001
        total = sum(spec.duration_s for spec in DRUG_SCREENING_TYPES.values() if spec.name != "prepare_receptor")
        average = total / 6
        # Paper: 1447 h / 24001 tasks ~= 217 s per task.
        assert 180 <= average <= 260

    def test_scale_parameter(self):
        env, client = make_client()
        info = build_drug_screening_workflow(client, scale=0.001)
        assert info.task_count == 1 + 6 * 4
        assert info.scale == 0.001

    def test_invalid_scale_rejected(self):
        env, client = make_client()
        with pytest.raises(ValueError):
            build_drug_screening_workflow(client, scale=0.0)

    def test_runs_to_completion(self):
        env, client = make_client()
        info = build_drug_screening_workflow(client, scale=5 / FULL_SCALE_BATCHES)
        client.run()
        assert client.graph.is_complete()
        assert all(f.done() for f in info.futures)


class TestMontage:
    def test_task_count_structure(self):
        env, client = make_client()
        info = build_montage_workflow(client, scale=10 / FULL_SCALE_IMAGES)
        # images + 2*images + concat + model + images + coadd + jpeg
        assert info.task_count == 10 + 20 + 1 + 1 + 10 + 1 + 1
        assert info.tasks_by_type["project_image"] == 10

    def test_full_scale_matches_paper(self):
        assert FULL_SCALE_IMAGES * 4 + 4 == 11340
        durations = [spec.duration_s for spec in MONTAGE_TYPES.values()]
        assert min(durations) > 0

    def test_runs_to_completion(self):
        env, client = make_client()
        info = build_montage_workflow(client, scale=6 / FULL_SCALE_IMAGES)
        client.run()
        assert client.graph.is_complete()
        assert all(f.done() for f in info.futures)

    def test_invalid_parameters(self):
        env, client = make_client()
        with pytest.raises(ValueError):
            build_montage_workflow(client, scale=2.0)
        assert build_montage_workflow(client, scale=1e-6).task_count == 2 + 4 + 1 + 1 + 2 + 1 + 1


class TestSynthetic:
    def test_stress_workload_counts(self):
        env, client = make_client()
        info = build_stress_workload(client, 12, 5.0)
        assert info.task_count == 12
        client.run()
        assert client.graph.is_complete()

    def test_stress_workload_pinning(self):
        env, client = make_client()
        build_stress_workload(client, 4, 1.0, endpoint="site_b")
        client.run()
        assert client.summary().tasks_per_endpoint == {"site_b": 4}

    def test_stress_workload_validation(self):
        env, client = make_client()
        with pytest.raises(ValueError):
            build_stress_workload(client, 0, 1.0)
        with pytest.raises(ValueError):
            build_stress_workload(client, 1, 0.0)
