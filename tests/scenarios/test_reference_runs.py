"""Whole runs on the executable specifications of §IV-D and §IV-E.

With the scalar reference schedulers of ``tests/reference/dha_scalar.py``
patched into the scheduler registry, full scenarios — workload generation,
staging, delay mechanism, re-scheduling, placement plan, prefetch hints,
capacity slices — reproduce the committed golden digests of the product's
array schedulers.  A single diverging placement anywhere in a run would
cascade into a different event log and a different digest.  The reference
keeps its claims by hand from the engine's events, and checks them against
the task store's count before every scheduling pass.

Likewise, with the paper's FIFO data manager of
``tests/reference/fifo_staging.py`` in place of the data plane, a
``--no-dataplane`` run writes exactly the artifact the plane's published
policy writes.
"""

import dataclasses

import pytest

import repro.sched
import repro.serving.federation
from repro.dataplane.replica_store import ReplicaStore
from repro.durability.runtime import reset_global_id_counters
from repro.engine.bus import EventBus
from repro.engine.core import ExecutionEngine
from repro.scenarios.presets import SCENARIOS, paper_spec
from repro.scenarios.spec import run_scenario

from tests.golden.regenerate import artifact_sha256
from tests.reference.dha_scalar import ReferenceDHAScheduler, ReferenceHEFTScheduler
from tests.reference.fifo_staging import DataManager
from tests.scenarios.test_golden_digests import GOLDEN


def use_reference_schedulers(monkeypatch):
    """Patch the reference classes in; returns the batch sizes they placed."""
    monkeypatch.setitem(repro.sched._REGISTRY, "DHA", ReferenceDHAScheduler)
    monkeypatch.setitem(repro.sched._REGISTRY, "HEFT", ReferenceHEFTScheduler)
    init = ExecutionEngine.__init__

    def observed(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if isinstance(self.scheduler, ReferenceDHAScheduler):
            self.scheduler.observe(self)

    monkeypatch.setattr(ExecutionEngine, "__init__", observed)
    batches = []
    schedule = ReferenceDHAScheduler.schedule

    def counted(self, ready_tasks):
        batches.append(len(ready_tasks))
        return schedule(self, ready_tasks)

    monkeypatch.setattr(ReferenceDHAScheduler, "schedule", counted)
    return batches


# ci-smoke: the plain path and the prefetcher's placement hints; hot-dataset:
# the placement plan's warm and root masks; multi-tenant: arbitration's
# capacity slices.  Re-scheduling moves are in the case study below.
@pytest.mark.parametrize("name", ["ci-smoke", "hot-dataset", "multi-tenant"])
def test_preset_on_the_reference_reproduces_its_golden_digest(name, monkeypatch):
    batches = use_reference_schedulers(monkeypatch)
    assert artifact_sha256(run_scenario(SCENARIOS[name])) == GOLDEN[name]
    assert batches  # the run really was scheduled by the reference


def test_mocking_off_case_study_logs_the_same_events_on_the_reference(monkeypatch):
    # The §IV-B ablation: a scheduler that only ever sees the service's
    # stale status.  The arrays serve it (re-reading the service once per
    # call) exactly as the reference's per-query re-read does.
    logs = []
    record_to = EventBus.record_to

    def recorded(self, log):
        logs.append(log)
        return record_to(self, log)

    monkeypatch.setattr(EventBus, "record_to", recorded)
    spec = dataclasses.replace(paper_spec("drug_screening", scale=0.03), endpoint_mocking=False)

    def case_study():
        del logs[:]
        reset_global_id_counters()  # task ids are process-global
        result = run_scenario(spec)
        (log,) = logs
        return result, log

    product, product_log = case_study()
    batches = use_reference_schedulers(monkeypatch)
    reference, reference_log = case_study()
    assert batches
    assert product_log == reference_log and len(product_log) > 3000
    assert product.completed_tasks == reference.completed_tasks == product.total_tasks
    assert product.makespan_s == reference.makespan_s
    assert product.rescheduled_tasks == reference.rescheduled_tasks > 0


class ReferenceStaging(DataManager):
    """The paper's manager behind the hooks the engine calls on the plane.

    Pins and the output lifecycle land in an unbounded store nobody reads
    for staging; speculation, crash reactions and stats are absent.
    """

    published = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.store = ReplicaStore()

    def set_plan_provider(self, provider):
        pass

    def staging_sources(self, file):
        # The paper prices the primary replica.
        primary = file.primary_location
        return [] if primary is None else [primary]

    def on_endpoint_crashed(self, endpoint):
        pass

    def on_endpoint_rejoined(self, endpoint):
        pass

    def prefetch(self, file, destination, priority=0.0):
        return False

    def stats_dict(self):
        return {}


# ci-smoke: the plain path; chaos-crash-rejoin: staging around a crash and a
# rejoin; hot-dataset: the placement plan's replication requests the published
# policy declines; multi-tenant: four tenants' namespaced tickets on one manager.
@pytest.mark.parametrize(
    "name", ["ci-smoke", "chaos-crash-rejoin", "hot-dataset", "multi-tenant"]
)
def test_published_run_on_the_fifo_reference_writes_the_same_artifact(name, monkeypatch):
    spec = dataclasses.replace(SCENARIOS[name], enable_dataplane=False)
    product = run_scenario(spec).to_json()
    built = []

    def build_reference(config, backend, clock):
        built.append(
            ReferenceStaging(
                backend,
                clock,
                mechanism=config.transfer_mechanism,
                max_concurrent_transfers=config.max_concurrent_transfers,
                max_retries=config.max_transfer_retries,
            )
        )
        return built[-1]

    monkeypatch.setattr(repro.serving.federation, "_build_data_manager", build_reference)
    assert run_scenario(spec).to_json() == product
    assert built  # the run really staged through the reference
