"""One claim count: the task store's placed-but-undispatched tasks.

A scheduler's claims on an endpoint — tasks placed there and not yet
dispatched, which DHA's estimated finish time and Locality's free-worker
test subtract — are read from the task store, whoever placed the task and
however it left the pending-dispatch states.  Two paths a hand-kept count
got wrong: a task whose staging failed terminally, and an endpoint-pinned
task (placed without the scheduler) being dispatched.
"""

from repro.core.client import ENDPOINT_HINT_KWARG
from repro.core.dag import TaskState
from repro.data.remote_file import GlobusFile
from repro.engine.events import TasksDispatched
from repro.experiments.environment import EndpointSetup, build_simulation
from repro.sim.network import NetworkModel
from repro.workloads.spec import TaskTypeSpec, make_task_type

from tests.integration.conftest import fast_latency, small_cluster

CONSUME = TaskTypeSpec(name="claim_consume", duration_s=0.5, output_mb=0.0)


def build_client(names, failure_rate=0.0):
    """A DHA client whose inputs live in an ``archive`` outside the
    federation, behind links failing at ``failure_rate``."""
    setups = [
        EndpointSetup(name=name, cluster=small_cluster(name), initial_workers=8,
                      auto_scale=False, duration_jitter=0.0, execution_overhead_s=0.0)
        for name in names
    ]
    network = NetworkModel.uniform(
        tuple(names) + ("archive",), bandwidth_mbps=100.0, jitter=0.0,
        failure_rate=failure_rate, seed=0,
    )
    env = build_simulation(setups, network=network, latency=fast_latency(), seed=0)
    return env.make_client(env.make_config("DHA"))


def test_a_terminal_staging_failure_leaves_no_claim_behind():
    client = build_client(("site_a", "site_b"), failure_rate=1.0)
    source = GlobusFile("remote.dat", size_mb=10.0, location="archive")
    consume = make_task_type(CONSUME)
    with client:
        futures = [consume(source) for _ in range(12)]
    client.run(max_wall_time_s=60.0)
    assert all(client.graph.get(f.task_id).state == TaskState.FAILED for f in futures)
    assert client.summary().failed_tasks == 12
    scheduler, monitor = client.engine.scheduler, client.engine.endpoint_monitor
    for name in monitor.endpoint_names():
        assert scheduler.claimed(name) == 0
        assert scheduler.unclaimed_free_capacity(name) == monitor.free_capacity(name) == 8


def test_dispatching_a_pinned_task_keeps_the_claims_of_other_tasks():
    client = build_client(("site_a",))
    scheduler = client.engine.scheduler
    source = GlobusFile("remote.dat", size_mb=10.0, location="archive")
    consume = make_task_type(CONSUME)
    seen = []
    client.bus.subscribe(
        TasksDispatched,
        lambda e: seen.append(([t.task_id for t in e.tasks], scheduler.claimed("site_a"))),
    )
    with client:
        # Placed by DHA, then staging its input for 0.8 s ...
        unpinned = consume(source)
        # ... while a pinned task with nothing to stage is dispatched.
        pinned = consume(**{ENDPOINT_HINT_KWARG: "site_a"})
    client.run(max_wall_time_s=60.0)
    assert client.graph.is_complete()
    assert seen[0] == ([pinned.task_id], 1)  # the unpinned task's claim stands
    assert seen[1] == ([unpinned.task_id], 0)
