"""Crash quarantine order under several tenants.

When an endpoint crashes, each tenant's failure coordinator re-places its
stranded tasks and the shared data plane quarantines the dead endpoint's
replicas.  The quarantine must land before any re-placed task stages, for
every tenant — otherwise the re-staged inputs are copied *from* the corpse.
"""

from repro.data.transfer import SimulatedTransferBackend
from repro.faas.endpoint import SimulatedEndpoint
from repro.scenarios.dynamics import DynamicsSpec, TimelineEvent
from repro.scenarios.spec import EndpointSpec, ScenarioSpec, WorkloadSpec, run_scenario

CRASHED = "qiming"

SPEC = ScenarioSpec(
    name="two-tenant-crash",
    description="two tenants share a hot dataset; a replica-holding site crashes and rejoins",
    workload=WorkloadSpec(
        kind="hot_dataset", task_count=400, duration_s=3.0, output_mb=8.0,
        layer_width=16, shared_files=24, shared_mb=96.0,
    ),
    topology=(
        EndpointSpec(name="taiyi", cluster="taiyi", workers=18, storage_gb=0.75),
        EndpointSpec(name=CRASHED, cluster="qiming", workers=12, storage_gb=0.5),
        EndpointSpec(name="datastore", cluster="lab", workers=4, storage_gb=3.0),
    ),
    scheduler="DHA",
    bandwidth_mbps=100.0,
    network_profile="tiered",
    eviction_policy="cost_benefit",
    # Greedy layers: the global plan keeps this small dataset at its home
    # site and nothing would move at all.
    enable_placement=False,
    workflows=2,
    arbitration="fair_share",
    dynamics=DynamicsSpec(
        scripted=(
            TimelineEvent(at_s=40.0, action="crash", endpoint=CRASHED),
            TimelineEvent(at_s=100.0, action="rejoin", endpoint=CRASHED, value=12.0),
        ),
    ),
)


def test_no_transfer_reads_a_crashed_endpoints_replica(monkeypatch):
    # One ordered log of crash / rejoin / transfer-start, in execution order.
    log = []
    crash, rejoin, start = (
        SimulatedEndpoint.crash, SimulatedEndpoint.rejoin, SimulatedTransferBackend.start
    )

    def logged_crash(self):
        log.append(("crash", self.name))
        return crash(self)

    def logged_rejoin(self, workers=None):
        log.append(("rejoin", self.name))
        return rejoin(self, workers)

    def logged_start(self, request, on_done):
        log.append(("transfer", request.src, request.dst))
        return start(self, request, on_done)

    monkeypatch.setattr(SimulatedEndpoint, "crash", logged_crash)
    monkeypatch.setattr(SimulatedEndpoint, "rejoin", logged_rejoin)
    monkeypatch.setattr(SimulatedTransferBackend, "start", logged_start)

    result = run_scenario(SPEC, max_wall_time_s=120)

    assert result.completed_tasks == result.total_tasks
    down = log.index(("crash", CRASHED))
    up = log.index(("rejoin", CRASHED))
    # The site held replicas when it died, and staging went on without it ...
    assert any(entry[0] == "transfer" and entry[2] == CRASHED for entry in log[:down])
    during = [entry for entry in log[down:up] if entry[0] == "transfer"]
    assert during
    # ... but never by reading from the corpse.
    assert all(src != CRASHED for _, src, _ in during)
