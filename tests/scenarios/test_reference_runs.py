"""Whole runs on the executable specification of §IV-D.

With the scalar reference schedulers of ``tests/reference/dha_scalar.py``
patched into the scheduler registry, full scenarios — workload generation,
staging, delay mechanism, re-scheduling, placement plan, prefetch hints,
capacity slices — reproduce the committed golden digests of the product's
array schedulers.  A single diverging placement anywhere in a run would
cascade into a different event log and a different digest.
"""

import pytest

import repro.sched
from repro.core.client import UniFaaSClient
from repro.durability.runtime import reset_global_id_counters
from repro.engine.events import expand_event
from repro.experiments.case_studies import DRUG_STATIC_DEPLOYMENT, run_case_study
from repro.scenarios.presets import SCENARIOS
from repro.scenarios.spec import run_scenario

from tests.golden.regenerate import artifact_sha256
from tests.reference.dha_scalar import ReferenceDHAScheduler, ReferenceHEFTScheduler
from tests.scenarios.test_golden_digests import GOLDEN


def use_reference_schedulers(monkeypatch):
    """Patch the reference classes in; returns the batch sizes they placed."""
    monkeypatch.setitem(repro.sched._REGISTRY, "DHA", ReferenceDHAScheduler)
    monkeypatch.setitem(repro.sched._REGISTRY, "HEFT", ReferenceHEFTScheduler)
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
    log = []
    run = UniFaaSClient.run

    def recorded_run(self, *args, **kwargs):
        self.bus.subscribe_all(lambda event: log.extend(expand_event(event)))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(UniFaaSClient, "run", recorded_run)

    def case_study():
        del log[:]
        reset_global_id_counters()  # task ids are process-global
        result = run_case_study(
            "drug_screening", "DHA", DRUG_STATIC_DEPLOYMENT,
            scale=0.03, seed=0, disable_endpoint_mocking=True,
        )
        return result, list(log)

    product, product_log = case_study()
    batches = use_reference_schedulers(monkeypatch)
    reference, reference_log = case_study()
    assert batches
    assert product_log == reference_log and len(product_log) > 3000
    assert product.completed_tasks == reference.completed_tasks == product.task_count
    assert product.makespan_s == reference.makespan_s
    assert product.rescheduled_tasks == reference.rescheduled_tasks > 0
