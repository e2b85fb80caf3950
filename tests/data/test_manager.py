"""The published §IV-E staging policy of the data plane, as a spec.

``DataPlane(..., published=True)`` is what ``--no-dataplane`` and the paper
case studies run: FIFO link queues, the cheapest replica by estimated
transfer time, retries from another replica, an unbounded store.
"""

import pytest

from repro.data.remote_file import GlobusFile
from repro.data.transfer import SimulatedTransferBackend
from repro.dataplane.plane import DataPlane
from repro.sim.kernel import SimulationKernel
from repro.sim.network import NetworkModel


def build_manager(
    endpoints=("a", "b", "c"),
    bandwidth=100.0,
    failure_rate=0.0,
    max_concurrent=4,
    max_retries=3,
    seed=0,
):
    kernel = SimulationKernel()
    net = NetworkModel.uniform(
        endpoints, bandwidth_mbps=bandwidth, jitter=0.0, failure_rate=failure_rate, seed=seed
    )
    backend = SimulatedTransferBackend(kernel, net)
    manager = DataPlane(
        backend,
        kernel.clock,
        max_concurrent_transfers=max_concurrent,
        max_retries=max_retries,
        published=True,
    )
    return kernel, net, manager


def file_at(name, size_mb, endpoint):
    return GlobusFile(name, size_mb=size_mb, location=endpoint)


class TestQueries:
    def test_missing_files_and_bytes_to_move(self):
        _, _, manager = build_manager()
        files = [file_at("x", 10.0, "a"), file_at("y", 5.0, "b"), file_at("z", 0.0, "a")]
        missing = manager.missing_files(files, "b")
        assert [f.name for f in missing] == ["x"]
        assert manager.bytes_to_move_mb(files, "b") == pytest.approx(10.0)
        assert manager.bytes_to_move_mb(files, "a") == pytest.approx(5.0)

    def test_zero_size_files_never_staged(self):
        _, _, manager = build_manager()
        files = [file_at("meta", 0.0, "a")]
        assert manager.bytes_to_move_mb(files, "b") == 0.0


class TestStaging:
    def test_stage_with_nothing_missing_completes_immediately(self):
        _, _, manager = build_manager()
        staged = []
        manager.add_staged_callback(staged.append)
        ticket = manager.stage("t1", [file_at("x", 10.0, "b")], "b")
        assert ticket.done
        assert not ticket.failed
        assert staged == [ticket]
        assert manager.total_transferred_mb == 0.0

    def test_stage_moves_missing_files(self):
        kernel, _, manager = build_manager()
        staged = []
        manager.add_staged_callback(staged.append)
        files = [file_at("x", 90.0, "a"), file_at("y", 45.0, "b")]
        ticket = manager.stage("t1", files, "b")
        assert not ticket.done
        assert manager.active_staging_tasks() == 1
        kernel.run()
        assert ticket.done and not ticket.failed
        assert staged == [ticket]
        assert files[0].available_at("b")
        assert manager.total_transferred_mb == pytest.approx(90.0)
        assert manager.volume_by_pair_mb[("a", "b")] == pytest.approx(90.0)
        assert manager.active_staging_tasks() == 0
        assert ticket.completed_at > ticket.created_at

    def test_ticket_lookup_by_task(self):
        kernel, _, manager = build_manager()
        ticket = manager.stage("t42", [file_at("x", 10.0, "a")], "b")
        assert manager.ticket_for_task("t42") is ticket
        assert manager.ticket_for_task("unknown") is None
        kernel.run()

    def test_multiple_tasks_counted_in_active_staging(self):
        kernel, _, manager = build_manager()
        manager.stage("t1", [file_at("x", 500.0, "a")], "b")
        manager.stage("t2", [file_at("y", 500.0, "a")], "c")
        assert manager.active_staging_tasks() == 2
        kernel.run()
        assert manager.active_staging_tasks() == 0

    def test_source_selection_prefers_cheapest_replica(self):
        kernel, net, manager = build_manager(bandwidth=10.0)
        # Make the c->b link much faster than a->b.
        from repro.sim.network import LinkSpec

        net.set_link("c", "b", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0))
        file = file_at("x", 100.0, "a")
        file.add_location("c")
        manager.stage("t1", [file], "b")
        kernel.run()
        assert manager.volume_by_pair_mb[("c", "b")] == pytest.approx(100.0)
        assert manager.volume_by_pair_mb[("a", "b")] == 0.0

    def test_stage_unplaced_file_fails_the_ticket(self):
        _, _, manager = build_manager()
        staged = []
        manager.add_staged_callback(staged.append)
        ticket = manager.stage("t1", [GlobusFile("ghost", size_mb=5.0)], "b")
        assert ticket.failed and staged == [ticket]
        assert manager.active_staging_tasks() == 0

    def test_register_output(self):
        _, _, manager = build_manager()
        f = GlobusFile("out", size_mb=3.0)
        manager.register_output(f, "b")
        assert f.available_at("b")


class TestStagingPins:
    def test_a_tasks_first_stage_releases_nothing(self, monkeypatch):
        # Only staging pins, so a task with no earlier ticket holds none.
        _, _, manager = build_manager()
        released = []
        monkeypatch.setattr(manager.store, "release_task", released.append)
        manager.stage("t1", [file_at("x", 10.0, "a")], "b")
        manager.stage("t2", [file_at("y", 10.0, "a")], "b")
        assert released == []

    def test_a_restage_drops_the_previous_tickets_pins(self):
        kernel, _, manager = build_manager()
        x, y = file_at("x", 10.0, "a"), file_at("y", 10.0, "a")
        manager.stage("t1", [x], "b")
        kernel.run()
        assert manager.store.replica(x.file_id, "b").pinned_by == {"t1"}
        manager.stage("t1", [y], "c")
        kernel.run()
        assert manager.store.replica(x.file_id, "b").pinned_by == set()
        assert manager.store.replica(y.file_id, "c").pinned_by == {"t1"}


class TestConcurrencyLimit:
    def test_transfers_respect_concurrency_limit(self):
        kernel, net, manager = build_manager(max_concurrent=2)
        files = [file_at(f"f{i}", 450.0, "a") for i in range(4)]
        manager.stage("t1", files, "b")
        # Only two transfers may be in flight on the a->b pair.
        assert net.active_transfers("a", "b") == 2
        kernel.run()
        assert manager.total_transferred_mb == pytest.approx(4 * 450.0)

    def test_pairs_have_independent_limits(self):
        kernel, net, manager = build_manager(max_concurrent=1)
        manager.stage("t1", [file_at("x", 450.0, "a")], "b")
        manager.stage("t2", [file_at("y", 450.0, "c")], "b")
        assert net.active_transfers("a", "b") == 1
        assert net.active_transfers("c", "b") == 1
        kernel.run()


class TestRetries:
    def test_failed_transfers_retried_until_success(self):
        # failure_rate=0.5 with three retries succeeds with high probability.
        kernel, _, manager = build_manager(failure_rate=0.5, max_retries=10, seed=3)
        staged = []
        manager.add_staged_callback(staged.append)
        ticket = manager.stage("t1", [file_at("x", 10.0, "a")], "b")
        kernel.run()
        assert ticket.done and not ticket.failed
        assert manager.retry_count >= 1
        assert manager.failed_transfer_count >= 1

    def test_retried_transfer_volume_counted_exactly_once(self):
        # Regression (Table IV/V accounting): a failed-then-retried transfer
        # contributes its size once to the aggregates and once to its
        # ticket, no matter how many attempts it took.
        kernel, _, manager = build_manager(failure_rate=0.5, max_retries=10, seed=3)
        ticket = manager.stage("t1", [file_at("x", 10.0, "a")], "b")
        kernel.run()
        assert ticket.done and not ticket.failed
        assert manager.retry_count >= 1
        assert manager.total_transferred_mb == pytest.approx(10.0)
        assert manager.volume_by_pair_mb[("a", "b")] == pytest.approx(10.0)
        assert ticket.transferred_mb == pytest.approx(10.0)

    def test_failed_ticket_stops_accumulating_volume(self):
        # Regression: a ticket that failed terminally (one input exhausted
        # its retries) must not keep accruing volume when a shared sibling
        # transfer later succeeds — per-ticket sums would double-count
        # against the aggregates.
        from repro.sim.network import LinkSpec

        kernel, net, manager = build_manager(max_concurrent=1)
        net.set_link(
            "c", "b", LinkSpec(bandwidth_mbps=100.0, jitter=0.0, failure_rate=1.0)
        )
        shared = file_at("x", 2000.0, "a")  # big: outlives y's retry ladder
        doomed_extra = file_at("y", 1.0, "c")
        survivor = manager.stage("ok", [shared], "b")
        doomed = manager.stage("doomed", [shared, doomed_extra], "b")
        kernel.run()
        assert doomed.failed
        assert survivor.done and not survivor.failed
        assert doomed.transferred_mb == 0.0
        assert survivor.transferred_mb == pytest.approx(2000.0)
        assert manager.total_transferred_mb == pytest.approx(2000.0)

    def test_retry_repicks_source_off_a_dead_link(self):
        # Regression: the retry path used to re-append the failed transfer to
        # the same (src, dst) queue, burning every retry into a dead link
        # even when a live replica existed elsewhere.
        from repro.sim.network import LinkSpec

        kernel, net, manager = build_manager(max_retries=2)
        # a->b is nominally fast (so the first pick chooses it) but dead.
        net.set_link("a", "b", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0, failure_rate=1.0))
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=50.0, jitter=0.0))
        file = file_at("x", 100.0, "a")
        file.add_location("c")
        ticket = manager.stage("t1", [file], "b")
        kernel.run()
        assert ticket.done and not ticket.failed
        assert manager.retry_count >= 1
        assert manager.volume_by_pair_mb[("c", "b")] == pytest.approx(100.0)
        assert manager.volume_by_pair_mb[("a", "b")] == 0.0

    def test_retry_keeps_sole_replica_source(self):
        # With a single replica there is nothing to re-pick: the retry stays
        # on the same pair and still exhausts the ladder as before.
        kernel, _, manager = build_manager(failure_rate=1.0, max_retries=2)
        ticket = manager.stage("t1", [file_at("x", 10.0, "a")], "b")
        kernel.run()
        assert ticket.failed
        assert manager.transfer_count == 3

    def test_ticket_fails_after_exhausting_retries(self):
        kernel, _, manager = build_manager(failure_rate=1.0, max_retries=2)
        staged = []
        manager.add_staged_callback(staged.append)
        ticket = manager.stage("t1", [file_at("x", 10.0, "a")], "b")
        kernel.run()
        assert ticket.failed
        assert staged == [ticket]
        # 1 initial attempt + 2 retries.
        assert manager.transfer_count == 3
        assert manager.total_transferred_mb == 0.0


class TestSupersededTickets:
    def test_replaced_ticket_never_fires_stale_staged_callback(self):
        # Regression: stage() silently overwrote _tickets_by_task, but the
        # superseded ticket still notified on completion — the staging
        # coordinator could observe a "staged" event for a destination the
        # task had already left.
        kernel, _, manager = build_manager()
        staged = []
        manager.add_staged_callback(staged.append)
        file = file_at("x", 500.0, "a")
        old = manager.stage("t1", [file], "b")
        assert not old.done
        new = manager.stage("t1", [file], "c")  # re-placement mid-staging
        assert old.superseded
        assert manager.ticket_for_task("t1") is new
        kernel.run()
        # Only the authoritative ticket notified; the superseded one stayed
        # silent and accrued no volume even though its transfer landed.
        assert staged == [new]
        assert old.transferred_mb == 0.0
        assert new.transferred_mb == pytest.approx(500.0)
        assert manager.active_staging_tasks() == 0

    def test_superseded_ticket_not_failed_by_exhausted_sibling(self):
        kernel, _, manager = build_manager(failure_rate=1.0, max_retries=0)
        staged = []
        manager.add_staged_callback(staged.append)
        file = file_at("x", 10.0, "a")
        old = manager.stage("t1", [file], "b")
        new = manager.stage("t1", [file], "b")
        kernel.run()
        # The doomed transfer fails the authoritative ticket only.
        assert new.failed and staged == [new]
        assert old.superseded and not old.failed

    def test_namespace_volume_attribution(self):
        kernel, _, manager = build_manager()
        manager.stage("wf0/task-1", [file_at("x", 60.0, "a")], "b")
        manager.stage("wf1/task-1", [file_at("y", 40.0, "a")], "b")
        manager.stage("t-plain", [file_at("z", 10.0, "a")], "c")
        kernel.run()
        assert manager.volume_by_namespace_mb["wf0"] == pytest.approx(60.0)
        assert manager.volume_by_namespace_mb["wf1"] == pytest.approx(40.0)
        assert manager.volume_by_namespace_mb[""] == pytest.approx(10.0)
        assert manager.total_transferred_mb == pytest.approx(110.0)


class TestValidation:
    def test_invalid_parameters(self):
        kernel = SimulationKernel()
        net = NetworkModel.uniform(["a", "b"])
        backend = SimulatedTransferBackend(kernel, net)
        with pytest.raises(ValueError):
            DataPlane(backend, kernel.clock, max_concurrent_transfers=0, published=True)
        with pytest.raises(ValueError):
            DataPlane(backend, kernel.clock, max_retries=-1, published=True)


class TestPublishedPolicy:
    """What the published policy leaves out of the data plane."""

    def test_links_are_fifo_whatever_the_priority(self):
        kernel, _, manager = build_manager(max_concurrent=1)
        first = manager.stage("t1", [file_at("x", 100.0, "a")], "b", priority=0.0)
        second = manager.stage("t2", [file_at("y", 100.0, "a")], "b", priority=0.0)
        urgent = manager.stage("t3", [file_at("z", 100.0, "a")], "b", priority=9.0)
        kernel.run()
        assert first.completed_at < second.completed_at < urgent.completed_at

    def test_a_superseded_tickets_queued_transfer_still_lands(self):
        kernel, _, manager = build_manager(max_concurrent=1)
        manager.stage("busy", [file_at("w", 100.0, "a")], "b")
        file = file_at("x", 100.0, "a")
        old = manager.stage("t1", [file], "b")  # queued behind w
        new = manager.stage("t1", [file], "c")
        kernel.run()
        assert old.superseded and not old.failed and old.transferred_mb == 0.0
        assert new.done and not new.failed
        assert file.available_at("b") and file.available_at("c")
        assert manager.total_transferred_mb == pytest.approx(300.0)

    def test_no_prefetch_no_stats_no_crash_reaction(self):
        kernel, _, manager = build_manager(max_concurrent=1)
        manager.stage("busy", [file_at("w", 100.0, "a")], "b")
        queued = manager.stage("t1", [file_at("x", 100.0, "a")], "b")
        assert not manager.prefetch(file_at("y", 10.0, "a"), "c")
        manager.on_endpoint_crashed("b")
        assert not manager.store.is_offline("b")
        kernel.run()
        assert queued.done and not queued.failed
        assert manager.stats_dict() == {}

    def test_the_store_ignores_budgets_and_never_evicts(self):
        kernel = SimulationKernel()
        net = NetworkModel.uniform(["a", "b"], jitter=0.0)
        manager = DataPlane(
            SimulatedTransferBackend(kernel, net),
            kernel.clock,
            storage_budget_mb={"b": 1.0},
            default_storage_mb=1.0,
            published=True,
        )
        assert manager.store.capacity_mb("b") is None
        files = [file_at(f"f{i}", 50.0, "a") for i in range(3)]
        manager.stage("t1", files, "b")
        kernel.run()
        assert all(f.available_at("b") for f in files)
        assert manager.store.eviction_count == 0
