"""Where the federation's transfer results go.

Every transfer result the data plane reports reaches the shared transfer
profiler (§IV-C).  The task monitor only writes transfers to its history
store, so the run loop hands it a result only when a store is attached.
"""

from repro.core.functions import SimProfile, function
from repro.monitor.store import HistoryStore
from repro.monitor.task_monitor import TaskMonitor
from repro.profiling.transfer import TransferProfiler

from tests.integration.conftest import build_two_site_env


@function(sim_profile=SimProfile(base_time_s=2.0, output_base_mb=8.0))
def produce(seed=None):
    return None


@function(sim_profile=SimProfile(base_time_s=1.0))
def consume(*parts):
    return None


def run_with_transfers(monkeypatch, history_store=None):
    """Run producers pinned to site_a and consumers pinned to site_b, so
    every consumer input crosses the network.  Returns the results the data
    plane reported and those the profiler and the monitor were handed."""
    profiled, monitored = [], []
    observe = TransferProfiler.observe
    observe_transfer = TaskMonitor.observe_transfer

    def spy_observe(self, result, concurrency=1):
        profiled.append(result)
        return observe(self, result, concurrency)

    def spy_observe_transfer(self, result, concurrency=1):
        monitored.append(result)
        return observe_transfer(self, result, concurrency)

    monkeypatch.setattr(TransferProfiler, "observe", spy_observe)
    monkeypatch.setattr(TaskMonitor, "observe_transfer", spy_observe_transfer)
    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"), history_store=history_store)
    reported = []
    client.federation.data_manager.add_transfer_callback(
        lambda result, concurrency: reported.append(result)
    )
    with client:
        for i in range(3):
            consume(produce(i, unifaas_endpoint="site_a"), unifaas_endpoint="site_b")
        client.run()
    assert client.graph.is_complete()
    assert reported, "the pinned consumers moved no data"
    return reported, profiled, monitored


def test_without_a_store_only_the_profiler_sees_transfers(monkeypatch):
    reported, profiled, monitored = run_with_transfers(monkeypatch)
    assert profiled == reported
    assert monitored == []


def test_a_monitor_with_a_store_records_every_transfer(monkeypatch):
    store = HistoryStore()
    reported, profiled, monitored = run_with_transfers(monkeypatch, history_store=store)
    assert profiled == reported
    assert monitored == reported
    assert store.transfer_count() == len(reported)
