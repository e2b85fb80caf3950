"""One subscriber per lifecycle event, and staging failures that name their
cause.

With the data plane and prefetch on, :class:`TaskPlaced` has one handler
(the staging coordinator, which tells the prefetcher after staging began)
and :class:`StagingDone` has one (the dispatch coordinator, which hands a
failed ticket to the §IV-G failure coordinator).  A staging failure fails
the task with an error naming what failed: the transfer that ran out of
retries, or the input that had no replica left to copy.
"""

import pytest

from repro.core.client import ENDPOINT_HINT_KWARG
from repro.core.dag import TaskState
from repro.core.exceptions import NoReplicaError, StagingFailedError, TransferFailedError
from repro.data.remote_file import GlobusFile
from repro.engine.events import StagingDone, TaskFailed, TaskPlaced
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.sim.network import NetworkModel
from repro.workloads.spec import TaskTypeSpec, make_task_type

from tests.integration.conftest import build_two_site_env, fast_latency, small_cluster

CONSUME = TaskTypeSpec(name="lc_consume", duration_s=0.5, output_mb=0.0)


def build_client(link_failure_rate=0.0, names=("site_a", "site_b")):
    """A DHA client on a data plane with prefetch on (the defaults)."""
    if link_failure_rate == 0.0 and names == ("site_a", "site_b"):
        env = build_two_site_env()
    else:
        setups = [
            EndpointSetup(name=name, cluster=small_cluster(name), initial_workers=8,
                          auto_scale=False, duration_jitter=0.0, execution_overhead_s=0.0)
            for name in names
        ]
        network = NetworkModel.uniform(
            names, bandwidth_mbps=100.0, jitter=0.0, failure_rate=link_failure_rate, seed=0
        )
        env = build_simulation(setups, network=network, latency=fast_latency(), seed=0)
    client = env.make_client(env.make_config("DHA"))
    assert client.engine.prefetcher is not None
    assert not client.data_manager.published
    return env, client


def run_failing_consumer(client, input_file):
    """Run one task pinned to site_b that reads ``input_file``; returns the
    task, its TaskFailed events and the error its future carries."""
    failed = []
    client.bus.subscribe(TaskFailed, failed.append)
    with client:
        future = make_task_type(CONSUME)(input_file, **{ENDPOINT_HINT_KWARG: "site_b"})
    task = client.graph.get(future.task_id)
    client.run(max_wall_time_s=60.0)
    with pytest.raises(StagingFailedError) as caught:
        future.result()
    return task, failed, caught.value


class TestOneSubscriber:
    def test_placed_and_staging_done_have_one_handler_each(self):
        _, client = build_client()
        bus = client.engine.bus
        assert len(bus._handlers[TaskPlaced]) == len(bus._handlers[StagingDone]) == 1
        assert bus.handler_count() == 9

    def test_a_failed_staging_done_still_reaches_the_ladder(self):
        _, client = build_client()
        plane = client.data_manager
        # No replica anywhere: the plane fails the ticket inside stage().
        task, failed, _ = run_failing_consumer(client, GlobusFile("lost.dat", size_mb=10.0))
        assert task.state == TaskState.FAILED
        assert [event.task_id for event in failed] == [task.task_id]
        assert failed[0].endpoint == "site_b"
        assert task.task_id not in plane.store._pins_by_task
        assert client.summary().failed_tasks == 1
        assert client.engine.graph.store.undispatched_count == 0

    def test_placing_a_guessed_task_releases_its_virtual_claim(self):
        _, client = build_client(names=("site_a", "site_b", "site_c"))
        prefetcher = client.engine.prefetcher
        heard = []
        on_task_placed = prefetcher.on_task_placed

        def spy(task_id, endpoint):
            # The prefetcher hears after staging began, as before.
            heard.append((task_id, endpoint, client.graph.get(task_id).state))
            on_task_placed(task_id, endpoint)

        prefetcher.on_task_placed = spy
        placed = []
        client.bus.subscribe(TaskPlaced, lambda e: placed.append((e.task_id, e.endpoint)))
        produce = make_task_type(TaskTypeSpec(name="lc_produce", duration_s=0.2, output_mb=20.0))
        gate = make_task_type(TaskTypeSpec(name="lc_gate", duration_s=6.0, output_mb=0.0))
        heavy = make_task_type(TaskTypeSpec(name="lc_heavy", duration_s=5.0, output_mb=0.0))
        with client:
            barrier = gate()
            for _ in range(12):
                heavy(produce(**{ENDPOINT_HINT_KWARG: "site_a"}), barrier)
        client.run(max_wall_time_s=120.0)
        assert client.graph.is_complete()
        assert [(task_id, endpoint) for task_id, endpoint, _ in heard] == placed
        assert {state for _, _, state in heard} <= {TaskState.STAGING, TaskState.STAGED}
        assert prefetcher.guesses_confirmed + prefetcher.guesses_missed > 0
        assert prefetcher._guesses == {}
        assert prefetcher._virtual_claims == {}


class TestStagingFailureCause:
    def test_exhausted_retries_name_the_transfer(self):
        _, client = build_client(link_failure_rate=1.0)
        source = GlobusFile("remote.dat", size_mb=10.0, location="site_a")
        task, failed, error = run_failing_consumer(client, source)
        assert type(error) is TransferFailedError
        assert error.file_id == source.file_id
        assert error.transfer_id.startswith("xfer-")
        assert (error.src, error.dst) == ("site_a", "site_b")
        # One first attempt plus every retry, as the data plane counted them.
        assert error.attempts == client.config.max_transfer_retries + 1
        assert client.data_manager.transfer_count == error.attempts
        assert str(error) == (
            f"transfer {error.transfer_id} of {source.file_id} (site_a -> site_b) "
            f"failed after {error.attempts} attempt(s)"
        )
        assert failed[0].error == str(error)
        assert task.state == TaskState.FAILED

    def test_a_replica_less_input_names_the_file_not_a_transfer(self):
        _, client = build_client()
        lost = GlobusFile("lost.dat", size_mb=10.0)
        task, failed, error = run_failing_consumer(client, lost)
        assert type(error) is NoReplicaError
        assert (error.file_id, error.dst) == (lost.file_id, "site_b")
        assert str(error) == f"input {lost.file_id} has no replica to stage to site_b from"
        assert client.data_manager.transfer_count == 0
        assert failed[0].error == str(error)
