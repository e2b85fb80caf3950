"""Regression tests: tasks whose functions have no SimProfile (cores default).

``DispatchCoordinator.dispatch`` and ``LocalFabric.build_request`` used to
read ``task.sim_profile.cores`` unconditionally, crashing for any function
registered without a simulation profile — i.e. every plainly decorated
function run in local mode.  ``Task.cores`` now defaults to 1.
"""

import pytest

from repro.core.client import UniFaaSClient
from repro.core.config import Config, ExecutorSpec
from repro.core.dag import Task, TaskGraph
from repro.core.exceptions import EndpointError
from repro.core.functions import FederatedFunction, SimProfile, function, set_current_client
from repro.engine.events import TasksDispatched
from repro.faas.local import LocalEndpoint, LocalFabric


@function
def plain_add(a, b):
    return a + b


@pytest.fixture(autouse=True)
def clean_client_context():
    set_current_client(None)
    yield
    set_current_client(None)


class TestTaskCores:
    def test_defaults_to_one_without_profile(self):
        task = Task(function=FederatedFunction(lambda: None, name="bare"))
        assert task.sim_profile is None
        assert task.cores == 1

    def test_reads_profile_when_present(self):
        fn = FederatedFunction(lambda: None, name="wide", sim_profile=SimProfile(cores=4))
        assert Task(function=fn).cores == 4


class TestLocalDispatchWithoutProfile:
    def test_workflow_with_unprofiled_function_runs(self):
        fabric = LocalFabric([LocalEndpoint("local", max_workers=2)])
        config = Config(
            executors=[ExecutorSpec(label="local", endpoint="local")],
            scheduling_strategy="LOCALITY",
            enable_scaling=False,
        )
        client = UniFaaSClient(config, fabric)
        dispatched_cores = []
        client.bus.subscribe(
            TasksDispatched,
            lambda e: dispatched_cores.extend(t.cores for t in e.tasks),
        )
        try:
            with client:
                result = plain_add(2, 3)
                client.run(max_wall_time_s=30.0)
            assert result.result() == 5
            assert dispatched_cores and all(c == 1 for c in dispatched_cores)
        finally:
            fabric.shutdown()

    def test_build_request_defaults_cores(self):
        fabric = LocalFabric([LocalEndpoint("local", max_workers=1)])
        try:
            task = TaskGraph().add_task(Task(function=plain_add, args=(1, 2)))
            request = fabric.build_request(task)
            assert request.cores == 1
            assert request.callable_ is plain_add.callable
        finally:
            fabric.shutdown()


class TestSimulatedFabricStillRequiresProfile:
    def test_clear_error_without_profile(self):
        from tests.scenarios.test_scenarios import two_site_env

        env = two_site_env()
        task = Task(function=FederatedFunction(lambda: None, name="bare"))
        with pytest.raises(EndpointError, match="has no SimProfile"):
            env.fabric.build_request(task)
