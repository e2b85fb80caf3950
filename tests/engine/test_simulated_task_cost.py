"""A simulated task pays only for simulation.

Its callable never runs, so nothing resolves its future arguments: the one
fabric that runs callables, ``LocalFabric``, does that as it builds the
request.  And an attached task's input size is its store row's ``input_mb``
column, not a re-sum over its files, so that column must equal the files'
sum wherever a reader can look — checked here at the end of whole runs.
"""

import dataclasses

import pytest

from repro.core.dag import Task
from repro.scenarios.presets import SCENARIOS
from repro.scenarios.spec import run_scenario
from repro.serving.manager import WorkflowManager

from tests.integration.test_client_local import add, make_client


def scaled(name, task_count):
    spec = SCENARIOS[name]
    return dataclasses.replace(
        spec, workload=dataclasses.replace(spec.workload, task_count=task_count)
    )


def spy_resolved_args(monkeypatch):
    calls = []
    resolved_args = Task.resolved_args

    def spy(self):
        calls.append(self.name)
        return resolved_args(self)

    monkeypatch.setattr(Task, "resolved_args", spy)
    return calls


@pytest.mark.parametrize(
    "spec", [SCENARIOS["ci-smoke"], scaled("zoo-array", 1500)], ids=lambda spec: spec.name
)
def test_simulated_runs_resolve_no_arguments(monkeypatch, spec):
    calls = spy_resolved_args(monkeypatch)
    result = run_scenario(spec)
    assert result.completed_tasks > 0 and result.failed_tasks == 0
    assert calls == []


def test_local_runs_resolve_each_dispatch_once(monkeypatch):
    calls = spy_resolved_args(monkeypatch)
    client, fabric = make_client()
    try:
        with client:
            a = add(1, 2)
            b = add(a, 10)
            c = add(b, a)
            client.run(max_wall_time_s=30.0)
        assert (a.result(), b.result(), c.result()) == (3, 13, 16)
        assert calls == ["add"] * 3
    finally:
        fabric.shutdown()


def run_keeping_manager(monkeypatch, spec):
    managers = []
    run = WorkflowManager.run

    def spy_run(self, *args, **kwargs):
        managers.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(WorkflowManager, "run", spy_run)
    run_scenario(spec)
    return managers[-1]


@pytest.mark.parametrize(
    "spec",
    [SCENARIOS["ci-smoke"], scaled("zoo-mixed", 600), SCENARIOS["hot-dataset"]],
    ids=lambda spec: spec.name,
)
def test_input_size_column_is_the_files_sum_at_run_end(monkeypatch, spec):
    manager = run_keeping_manager(monkeypatch, spec)
    with_files = 0
    for handle in manager.workflows():
        for task in handle.graph:
            assert task._store is handle.graph.store
            assert task.input_size_mb == sum(f.size_mb for f in task.input_files)
            with_files += bool(task.input_files)
    assert with_files > 0
