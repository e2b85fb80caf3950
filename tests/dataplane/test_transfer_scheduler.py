"""Transfer scheduler + data plane: priorities, coalescing, multi-source,
retries, cancellation."""

import pytest

from repro.data.remote_file import GlobusFile
from repro.data.transfer import SimulatedTransferBackend
from repro.dataplane.plane import DataPlane
from repro.sim.kernel import SimulationKernel
from repro.sim.network import LinkSpec, NetworkModel


def build_plane(
    endpoints=("a", "b", "c"),
    bandwidth=100.0,
    failure_rate=0.0,
    max_concurrent=4,
    max_retries=3,
    seed=0,
    storage=None,
    policy="lru",
):
    kernel = SimulationKernel()
    net = NetworkModel.uniform(
        endpoints, bandwidth_mbps=bandwidth, jitter=0.0, failure_rate=failure_rate, seed=seed
    )
    backend = SimulatedTransferBackend(kernel, net)
    plane = DataPlane(
        backend,
        kernel.clock,
        max_concurrent_transfers=max_concurrent,
        max_retries=max_retries,
        storage_budget_mb=storage,
        eviction_policy=policy,
    )
    return kernel, net, plane


def file_at(name, size_mb, *endpoints):
    f = GlobusFile(name, size_mb=size_mb)
    for endpoint in endpoints:
        f.add_location(endpoint)
    return f


class TestBasicStaging:
    def test_nothing_missing_completes_immediately(self):
        _, _, plane = build_plane()
        done = []
        plane.add_staged_callback(done.append)
        ticket = plane.stage("t1", [file_at("x", 10.0, "b")], "b")
        assert ticket.done and not ticket.failed
        assert done == [ticket]
        assert plane.cache_hits == 1

    def test_stage_moves_missing_files_and_counts_misses(self):
        kernel, _, plane = build_plane()
        files = [file_at("x", 90.0, "a"), file_at("y", 45.0, "b")]
        ticket = plane.stage("t1", files, "b")
        assert not ticket.done
        assert plane.cache_hits == 1 and plane.cache_misses == 1
        assert plane.active_staging_tasks() == 1
        kernel.run()
        assert ticket.done and not ticket.failed
        assert files[0].available_at("b")
        assert plane.total_transferred_mb == pytest.approx(90.0)
        assert plane.active_staging_tasks() == 0

    def test_priority_orders_queued_transfers(self):
        kernel, net, plane = build_plane(max_concurrent=1)
        order = []
        plane.add_transfer_callback(
            lambda result, _: order.append(result.request.file.name)
        )
        # The blocker occupies the single slot; low arrives before high but
        # high's downstream priority lets it overtake in the queue.
        plane.stage("t-blocker", [file_at("blocker", 50.0, "a")], "b", priority=0.0)
        plane.stage("t-low", [file_at("low", 50.0, "a")], "b", priority=1.0)
        plane.stage("t-high", [file_at("high", 50.0, "a")], "b", priority=9.0)
        kernel.run()
        assert order == ["blocker", "high", "low"]
        assert plane.total_transferred_mb == pytest.approx(150.0)

    def test_cross_ticket_coalescing_single_copy(self):
        kernel, _, plane = build_plane()
        shared = file_at("shared", 80.0, "a")
        t1 = plane.stage("t1", [shared], "b", priority=1.0)
        t2 = plane.stage("t2", [shared], "b", priority=5.0)
        kernel.run()
        assert t1.done and t2.done and not t1.failed and not t2.failed
        # One physical copy, volume counted once, split across tickets.
        assert plane.total_transferred_mb == pytest.approx(80.0)
        assert t1.transferred_mb + t2.transferred_mb == pytest.approx(80.0)


class TestVanishedReplicas:
    def test_staging_a_replica_less_file_fails_the_ticket_cleanly(self):
        # A file with no surviving replica (evicted expendable sole copy, or
        # never located) must fail the ticket — feeding the §IV-G ladder —
        # instead of raising out of stage() and crashing the engine run.
        _, _, plane = build_plane()
        done = []
        plane.add_staged_callback(done.append)
        ghost = GlobusFile("ghost", size_mb=5.0)
        ticket = plane.stage("t1", [ghost], "b")
        assert ticket.failed and ticket.done
        assert done == [ticket]
        assert plane.active_staging_tasks() == 0

    def test_demote_restores_original_prefetch_priority(self):
        kernel, _, plane = build_plane(max_concurrent=1)
        from repro.dataplane.transfer_scheduler import PREFETCH

        blocker = file_at("blocker", 500.0, "a")
        hot = file_at("hot", 100.0, "a")
        plane.stage("t0", [blocker], "b")
        plane.prefetch(hot, "b", priority=1.0)
        plane.stage("t1", [hot], "b", priority=9.0)  # upgrade to demand @9
        job = plane.transfers.active_job(hot.file_id, "b")
        assert job.priority == 9.0
        plane.stage("t1", [hot], "c")  # supersede: back to speculation
        assert job.klass == PREFETCH
        assert job.priority == 1.0
        kernel.run()


class TestMultiSource:
    def test_picks_min_cost_replica_under_asymmetric_bandwidth(self):
        kernel, net, plane = build_plane(bandwidth=10.0)
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0))
        file = file_at("x", 100.0, "a", "c")
        plane.stage("t1", [file], "b")
        kernel.run()
        assert plane.volume_by_pair_mb[("c", "b")] == pytest.approx(100.0)
        assert plane.volume_by_pair_mb[("a", "b")] == 0.0

    def test_link_pressure_steers_to_second_best_source(self):
        kernel, net, plane = build_plane(bandwidth=100.0, max_concurrent=2)
        # Nearly equal links; saturate a->b so the pressure factor flips the
        # choice to the marginally slower c->b replica.
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=90.0, jitter=0.0))
        for i in range(4):
            plane.stage(f"load-{i}", [file_at(f"load{i}", 200.0, "a")], "b")
        replicated = file_at("hot", 100.0, "a", "c")
        plane.stage("t-hot", [replicated], "b")
        kernel.run()
        assert plane.volume_by_pair_mb[("c", "b")] == pytest.approx(100.0)


class TestRetryAccounting:
    def test_failed_then_retried_transfer_counts_volume_once(self):
        # Regression: the Table IV/V aggregates must count a retried
        # transfer's volume exactly once, not once per attempt.
        kernel, _, plane = build_plane(failure_rate=0.5, max_retries=10, seed=3)
        ticket = plane.stage("t1", [file_at("x", 10.0, "a")], "b")
        kernel.run()
        assert ticket.done and not ticket.failed
        assert plane.retry_count >= 1
        assert plane.total_transferred_mb == pytest.approx(10.0)
        assert ticket.transferred_mb == pytest.approx(10.0)

    def test_ticket_fails_after_exhausting_retries(self):
        kernel, _, plane = build_plane(failure_rate=1.0, max_retries=2)
        ticket = plane.stage("t1", [file_at("x", 10.0, "a")], "b")
        kernel.run()
        assert ticket.failed
        assert plane.transfer_count == 3  # 1 initial + 2 retries
        assert plane.total_transferred_mb == 0.0

    def test_failed_sibling_ticket_gets_no_volume(self):
        # Two tickets share transfer X; one ticket also waits on Y which
        # fails terminally.  When X later succeeds, the failed ticket must
        # not accumulate volume.
        kernel, net, plane = build_plane(max_concurrent=1)
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=100.0, jitter=0.0, failure_rate=1.0))
        # x is big enough that y exhausts its retries (on the independent
        # c->b link) before x completes.
        shared = file_at("x", 2000.0, "a")
        doomed_extra = file_at("y", 1.0, "c")
        survivor = plane.stage("ok", [shared], "b")
        doomed = plane.stage("doomed", [shared, doomed_extra], "b")
        kernel.run()
        assert doomed.failed
        assert survivor.done and not survivor.failed
        assert doomed.transferred_mb == 0.0
        assert survivor.transferred_mb == pytest.approx(2000.0)
        assert plane.total_transferred_mb == pytest.approx(2000.0)


class TestPrefetchPipeline:
    def test_prefetch_then_demand_join_counts_once(self):
        kernel, _, plane = build_plane(max_concurrent=1)
        hot = file_at("hot", 500.0, "a")
        assert plane.prefetch(hot, "b", priority=1.0)
        assert not plane.prefetch(hot, "b", priority=1.0)  # coalesced
        ticket = plane.stage("t1", [hot], "b", priority=2.0)
        kernel.run()
        assert ticket.done and not ticket.failed
        assert plane.total_transferred_mb == pytest.approx(500.0)
        assert plane.prefetch_issued == 1
        assert plane.prefetch_joined == 1
        assert plane.prefetch_usefulness() == pytest.approx(1.0)

    def test_prefetched_replica_counts_as_cache_hit(self):
        kernel, _, plane = build_plane()
        hot = file_at("hot", 50.0, "a")
        plane.prefetch(hot, "b")
        kernel.run()
        ticket = plane.stage("t1", [hot], "b")
        assert ticket.done
        assert plane.cache_hits == 1
        assert plane.prefetch_hits == 1
        assert plane.prefetch_usefulness() == pytest.approx(1.0)

    def test_prefetched_then_evicted_file_restages_correctly(self):
        kernel, _, plane = build_plane(storage={"b": 100.0})
        hot = file_at("hot", 80.0, "a")
        plane.prefetch(hot, "b")
        kernel.run()
        assert hot.available_at("b")
        # A pinned demand arrival pushes the unpinned prefetched replica out.
        big = file_at("big", 90.0, "a")
        t_big = plane.stage("t-big", [big], "b")
        kernel.run()
        assert t_big.done and not t_big.failed
        assert not hot.available_at("b")
        assert plane.store.prefetch_wasted == 1
        # Demand staging simply re-stages the evicted file.
        t_hot = plane.stage("t-hot", [hot], "b")
        kernel.run()
        assert t_hot.done and not t_hot.failed
        assert hot.available_at("b")
        assert plane.total_transferred_mb == pytest.approx(80.0 + 90.0 + 80.0)

    def test_prefetch_skips_oversized_and_present_files(self):
        _, _, plane = build_plane(storage={"b": 50.0})
        assert not plane.prefetch(file_at("big", 80.0, "a"), "b")  # over budget
        assert not plane.prefetch(file_at("there", 10.0, "b"), "b")  # present
        assert not plane.prefetch(GlobusFile("nowhere", size_mb=10.0), "b")
        assert plane.prefetch_issued == 0

    def test_demand_class_preempts_queued_prefetch(self):
        kernel, _, plane = build_plane(max_concurrent=1)
        blocker = file_at("blocker", 200.0, "a")
        spec1 = file_at("spec1", 50.0, "a")
        demand = file_at("demand", 50.0, "a")
        order = []
        plane.add_transfer_callback(lambda r, _: order.append(r.request.file.name))
        plane.stage("t0", [blocker], "b")  # occupies the single slot
        plane.prefetch(spec1, "b", priority=99.0)
        plane.stage("t1", [demand], "b", priority=0.0)
        kernel.run()
        # Demand overtakes the earlier, higher-priority prefetch.
        assert order.index("demand") < order.index("spec1")


class TestCancellation:
    def test_supersede_cancels_queued_transfers_of_replaced_ticket(self):
        kernel, _, plane = build_plane(max_concurrent=1)
        blocker = file_at("blocker", 500.0, "a")
        private = file_at("private", 100.0, "a")
        plane.stage("t0", [blocker], "b")
        plane.stage("t1", [private], "b")  # queued behind blocker
        # Re-placement toward c supersedes the b-bound ticket.
        plane.stage("t1", [private], "c")
        kernel.run()
        assert plane.transfers.cancelled_count == 1
        assert not private.available_at("b")
        assert private.available_at("c")
        assert plane.superseded_tickets == 1

    def test_supersede_detaches_only_the_superseded_ticket(self):
        # Regression: tickets compared field by field, so superseding one of
        # two field-equal tickets removed whichever the job listed first.
        from repro.data.manager import StagingTicket

        kernel, _, plane = build_plane(max_concurrent=1)
        blocker = file_at("blocker", 500.0, "a")
        shared = file_at("shared", 100.0, "a")
        plane.stage("t0", [blocker], "b")
        kept = plane.stage("t1", [shared], "b")  # queued behind blocker
        job = plane.transfers.active_job(shared.file_id, "b")
        twin = StagingTicket(
            task_id=kept.task_id, destination=kept.destination, created_at=kept.created_at
        )
        twin.ticket_id = kept.ticket_id
        twin.pending_transfers = set(kept.pending_transfers)
        job.tickets.append(twin)
        assert kept != twin  # identity, not field equality
        plane._supersede(twin)
        assert len(job.tickets) == 1 and job.tickets[0] is kept
        assert twin.superseded and not kept.superseded
        assert not job.cancelled  # ``kept`` still waits on the copy
        kernel.run()
        assert kept.done and shared.available_at("b")

    def test_crashed_destination_cancels_orphaned_queued_transfers(self):
        kernel, _, plane = build_plane(max_concurrent=1)
        blocker = file_at("blocker", 500.0, "a")
        hot = file_at("hot", 100.0, "a")
        plane.stage("t0", [blocker], "b")
        plane.prefetch(hot, "b")
        plane.on_endpoint_crashed("b")
        kernel.run()
        # The queued prefetch was dropped; only the in-flight blocker ran.
        assert plane.transfers.cancelled_count == 1
        assert not hot.available_at("b")
        assert plane.total_transferred_mb == pytest.approx(500.0)

    def test_supersede_demotes_orphaned_upgraded_prefetch(self):
        # A prefetch upgraded to demand by a joining ticket must fall back to
        # the prefetch class when that ticket is superseded — orphaned
        # speculation may not keep occupying a demand slot.
        kernel, _, plane = build_plane(max_concurrent=1)
        from repro.dataplane.transfer_scheduler import DEMAND, PREFETCH

        blocker = file_at("blocker", 500.0, "a")
        hot = file_at("hot", 100.0, "a")
        plane.stage("t0", [blocker], "b")  # occupies the slot
        plane.prefetch(hot, "b")
        plane.stage("t1", [hot], "b")  # joins + upgrades the prefetch
        job = plane.transfers.active_job(hot.file_id, "b")
        assert job.klass == DEMAND
        plane.stage("t1", [hot], "c")  # re-placement supersedes the ticket
        assert job.klass == PREFETCH
        assert not job.cancelled
        kernel.run()

    def test_evicted_source_replica_reroutes_queued_transfer(self):
        # The source of a queued transfer is not pinned; when it is evicted
        # the job must re-route to a surviving replica instead of "copying"
        # from an endpoint that no longer holds the file.
        # Budget fits the tracked working set (hot 100 + blocker 500) so the
        # eviction below comes from the explicit admission, after the hot
        # transfer is already queued with src=a.
        kernel, net, plane = build_plane(
            endpoints=("a", "b", "c", "d"), max_concurrent=1, storage={"a": 620.0}
        )
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=10.0, jitter=0.0))
        blocker = file_at("blocker", 500.0, "a")
        hot = file_at("hot", 100.0, "a", "c")  # a is the cheaper source
        plane.store.track(hot)
        plane.stage("t0", [blocker], "b")  # occupies the a->b slot
        ticket = plane.stage("t1", [hot], "b")  # queued behind it, src=a
        # Pressure at "a" evicts hot@a (2 replicas, unpinned at the source).
        plane.store.admit(file_at("newcomer", 120.0, "a"), "a")
        assert not hot.available_at("a")
        kernel.run()
        assert ticket.done and not ticket.failed
        assert hot.available_at("b")
        assert plane.volume_by_pair_mb[("c", "b")] == pytest.approx(100.0)
        assert plane.volume_by_pair_mb[("a", "b")] == pytest.approx(500.0)  # blocker only

    def test_crash_keeps_authoritative_demand_transfers(self):
        kernel, _, plane = build_plane(max_concurrent=1)
        blocker = file_at("blocker", 500.0, "a")
        needed = file_at("needed", 100.0, "a")
        plane.stage("t0", [blocker], "b")
        ticket = plane.stage("t1", [needed], "b")
        plane.on_endpoint_crashed("b")  # no re-placement happened: keep it
        kernel.run()
        assert plane.transfers.cancelled_count == 0
        assert ticket.done and not ticket.failed
        assert needed.available_at("b")


class TestQueueEntryTokens:
    def test_demote_after_upgrade_leaves_exactly_one_live_entry(self):
        # Regression: demoting an upgraded prefetch re-pushes a heap entry
        # whose key is identical to its stale pre-upgrade entry.  The
        # per-push token must (1) keep heapq from ever comparing TransferJob
        # payloads and (2) mark the stale twin dead, so the job cannot be
        # double-dispatched off the resurrected entry.
        kernel, _, plane = build_plane(max_concurrent=1)
        blocker = file_at("blocker", 500.0, "a")
        hot = file_at("hot", 100.0, "a")
        plane.stage("t0", [blocker], "b")  # occupies the single slot
        plane.prefetch(hot, "b", priority=1.0)
        plane.stage("t1", [hot], "b", priority=9.0)  # upgrade to demand
        plane.stage("t1", [hot], "c")  # supersede: demote back to original key
        job = plane.transfers.active_job(hot.file_id, "b")
        queue = plane.transfers._queues[("a", "b")]
        live = [entry for entry in queue if entry[1] == entry[2].queue_token]
        assert len(live) == 1 and live[0][2] is job
        kernel.run()
        assert job.attempts == 1  # dispatched once, not once per heap entry
        # blocker + the re-placed demand copy to c + the demoted prefetch to b
        assert plane.total_transferred_mb == pytest.approx(700.0)


class TestCrashQuarantine:
    def test_multi_source_avoids_crashed_replica(self):
        kernel, net, plane = build_plane(bandwidth=10.0)
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0))
        file = file_at("x", 100.0, "a", "c")
        plane.store.track(file)
        plane.on_endpoint_crashed("c")  # the fast replica is unreachable
        ticket = plane.stage("t1", [file], "b")
        kernel.run()
        assert ticket.done and not ticket.failed
        assert plane.volume_by_pair_mb[("a", "b")] == pytest.approx(100.0)
        assert plane.volume_by_pair_mb[("c", "b")] == 0.0

    def test_rejoined_replica_becomes_a_source_again(self):
        kernel, net, plane = build_plane(bandwidth=10.0)
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0))
        file = file_at("x", 100.0, "a", "c")
        plane.store.track(file)
        plane.on_endpoint_crashed("c")
        plane.on_endpoint_rejoined("c")
        plane.stage("t1", [file], "b")
        kernel.run()
        assert plane.volume_by_pair_mb[("c", "b")] == pytest.approx(100.0)

    def test_quarantined_sole_replica_is_still_a_last_resort_source(self):
        # When every replica sits on crashed endpoints, demand staging falls
        # back to them (mirroring the stranded-task wait-for-rejoin policy)
        # instead of failing the workflow outright.
        kernel, _, plane = build_plane()
        only = file_at("x", 50.0, "a")
        plane.on_endpoint_crashed("a")
        ticket = plane.stage("t1", [only], "b")
        kernel.run()
        assert ticket.done and not ticket.failed

    def test_inflight_arrival_at_crashed_destination_is_quarantined(self):
        # The copy lands on the crashed endpoint's disk (usable after a
        # rejoin) but must not serve as a transfer source while it is down.
        kernel, net, plane = build_plane()
        net.set_link("b", "c", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0))
        file = file_at("x", 100.0, "a")
        plane.stage("t1", [file], "b")
        plane.on_endpoint_crashed("b")  # transfer toward b is in flight
        kernel.run()
        assert file.available_at("b")  # landed, quarantined
        plane.stage("t2", [file], "c")
        kernel.run()
        # Without quarantine the fast b->c link would win the source pick.
        assert plane.volume_by_pair_mb[("a", "c")] == pytest.approx(100.0)
        assert plane.volume_by_pair_mb[("b", "c")] == 0.0

    def test_crash_reroutes_queued_transfers_from_the_dead_source(self):
        # A job queued before the crash chose the (then-cheapest) source
        # that just died: it must be re-issued from an online replica, like
        # the eviction path does, instead of later "copying" from the corpse.
        kernel, net, plane = build_plane(max_concurrent=1)
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0))
        blocker = file_at("blocker", 500.0, "c")
        hot = file_at("hot", 100.0, "a", "c")
        plane.stage("t0", [blocker], "b")  # occupies the fast c->b slot
        ticket = plane.stage("t1", [hot], "b")  # queued on c->b, src=c
        plane.on_endpoint_crashed("c")
        kernel.run()
        assert ticket.done and not ticket.failed
        assert plane.volume_by_pair_mb[("a", "b")] == pytest.approx(100.0)
        assert plane.volume_by_pair_mb[("c", "b")] == pytest.approx(500.0)  # blocker only

    def test_stage_never_evicts_a_sibling_resident_input(self):
        # track()-time budget enforcement must not push a later input's
        # already-resident replica out of the destination while tracking an
        # earlier input of the same task: all inputs are pinned up front.
        kernel, _, plane = build_plane(storage={"b": 100.0})
        f2 = file_at("f2", 60.0, "a", "b")
        plane.store.admit(f2, "b")  # resident, tracked, unpinned
        f1 = file_at("f1", 60.0, "b")  # resident but never tracked (seeded input)
        ticket = plane.stage("t1", [f1, f2], "b")
        assert ticket.done and not ticket.failed
        assert plane.cache_hits == 2 and plane.cache_misses == 0
        assert f2.available_at("b")
        assert plane.store.eviction_count == 0
        assert plane.store.peak_overflow_mb == pytest.approx(20.0)

    def test_prefetch_refuses_crashed_destination_and_sources(self):
        _, _, plane = build_plane()
        hot = file_at("hot", 50.0, "a")
        plane.on_endpoint_crashed("b")
        assert not plane.prefetch(hot, "b")  # destination is down
        plane.on_endpoint_rejoined("b")
        plane.on_endpoint_crashed("a")
        assert not plane.prefetch(hot, "b")  # every replica is quarantined
        plane.on_endpoint_rejoined("a")
        assert plane.prefetch(hot, "b")

    def test_crash_drops_queued_prefetch_whose_only_source_died(self):
        # Demand may fall back to a quarantined source; a queued prefetch
        # must instead be cancelled — speculation never copies from a corpse.
        kernel, _, plane = build_plane(max_concurrent=1)
        blocker = file_at("blocker", 500.0, "a")
        hot = file_at("hot", 100.0, "a")
        plane.stage("t0", [blocker], "b")  # occupies the a->b slot
        plane.prefetch(hot, "b")  # queued behind it, src=a
        plane.on_endpoint_crashed("a")
        kernel.run()
        assert not hot.available_at("b")
        assert plane.transfers.cancelled_count == 1
        assert plane.total_transferred_mb == pytest.approx(500.0)  # blocker only

    def test_second_crash_cancels_rerouted_prefetch_instead_of_corpse_hopping(self):
        # A prefetch rerouted off one crashed source must be *cancelled* when
        # its new source crashes too — _pick_source's quarantined-set
        # fallback must not bounce it between corpses.
        kernel, net, plane = build_plane(max_concurrent=1)
        net.set_link("c", "b", LinkSpec(bandwidth_mbps=1000.0, jitter=0.0))
        plane.stage("t0", [file_at("blocker-a", 500.0, "a")], "b")  # saturates a->b
        plane.stage("t1", [file_at("blocker-c", 500.0, "c")], "b")  # saturates c->b
        hot = file_at("hot", 100.0, "a", "c")
        plane.prefetch(hot, "b")  # fast c wins the source pick; queued
        plane.on_endpoint_crashed("c")
        job = plane.transfers.active_job(hot.file_id, "b")
        assert job is not None and job.request.src == "a"  # rerouted, still queued
        plane.on_endpoint_crashed("a")  # no online replica left
        assert plane.transfers.active_job(hot.file_id, "b") is None
        kernel.run()
        assert not hot.available_at("b")
        assert plane.total_transferred_mb == pytest.approx(1000.0)  # blockers only
