"""Replica store: budgets, pinning, eviction policies, invalidation."""

import pytest

from repro.data.remote_file import GlobusFile, location_version
from repro.dataplane.replica_store import (
    CostBenefitEviction,
    LRUEviction,
    ReplicaStore,
    create_eviction_policy,
)


def file_at(name, size_mb, *endpoints):
    f = GlobusFile(name, size_mb=size_mb)
    for endpoint in endpoints:
        f.add_location(endpoint)
    return f


def make_store(capacity_mb=100.0, policy="lru", refetch_cost=None):
    return ReplicaStore(
        {"a": capacity_mb, "b": None},
        policy=create_eviction_policy(policy),
        refetch_cost=refetch_cost,
    )


class TestTrackingAndBudget:
    def test_track_accounts_existing_replicas(self):
        store = make_store()
        f = file_at("x", 30.0, "a", "b")
        store.track(f)
        assert store.usage_mb("a") == pytest.approx(30.0)
        assert store.usage_mb("b") == pytest.approx(30.0)
        store.track(f)  # idempotent
        assert store.usage_mb("a") == pytest.approx(30.0)

    def test_zero_size_files_ignored(self):
        store = make_store()
        store.track(file_at("meta", 0.0, "a"))
        assert store.usage_mb("a") == 0.0

    def test_admit_within_budget_evicts_nothing(self):
        store = make_store(capacity_mb=100.0)
        f = file_at("x", 60.0, "a")
        assert store.admit(f, "a") == []
        assert store.eviction_count == 0

    def test_track_over_budget_enforces_eviction(self):
        # Regression: pre-existing/home replicas recorded via track() must be
        # held to the endpoint budget like any admitted arrival.
        store = make_store(capacity_mb=100.0)
        old = file_at("old", 80.0, "a", "b")
        store.track(old)
        seeded = file_at("seeded", 50.0, "a", "b")
        store.track(seeded)
        assert not old.available_at("a")
        assert old.available_at("b")
        assert store.usage_mb("a") == pytest.approx(50.0)
        assert store.eviction_count == 1

    def test_track_records_unevictable_overflow(self):
        store = make_store(capacity_mb=100.0)
        store.track(file_at("sole1", 80.0, "a"))  # sole replicas: unevictable
        store.track(file_at("sole2", 50.0, "a"))
        assert store.eviction_count == 0
        assert store.peak_overflow_mb == pytest.approx(30.0)

    def test_admit_over_budget_evicts_and_removes_location(self):
        store = make_store(capacity_mb=100.0)
        old = file_at("old", 80.0, "a", "b")  # second replica: evictable
        store.track(old)
        version = location_version()
        new = file_at("new", 50.0, "a")
        evicted = store.admit(new, "a")
        assert [r.file.name for r in evicted] == ["old"]
        assert not old.available_at("a")
        assert old.available_at("b")
        # The eviction must bump the replica-set generation so scheduler
        # prediction caches (scalar memo + vector staging matrix) invalidate.
        assert location_version() > version
        assert store.usage_mb("a") == pytest.approx(50.0)
        assert store.eviction_count == 1


class TestPinning:
    def test_pinned_replicas_never_evicted(self):
        store = make_store(capacity_mb=100.0)
        pinned = file_at("pinned", 80.0, "a", "b")
        store.track(pinned)
        store.pin(pinned, "a", "task-1")
        new = file_at("new", 50.0, "a")
        assert store.admit(new, "a") == []  # nothing evictable
        assert pinned.available_at("a")
        assert store.peak_overflow_mb > 0

    def test_release_makes_replica_evictable_again(self):
        store = make_store(capacity_mb=100.0)
        pinned = file_at("pinned", 80.0, "a", "b")
        store.track(pinned)
        store.pin(pinned, "a", "task-1")
        store.release_task("task-1")
        new = file_at("new", 50.0, "a")
        evicted = store.admit(new, "a")
        assert [r.file.name for r in evicted] == ["pinned"]

    def test_pending_pin_applies_on_arrival(self):
        store = make_store(capacity_mb=100.0)
        incoming = file_at("incoming", 40.0, "b")
        store.pin(incoming, "a", "task-1")  # not there yet
        incoming.add_location("a")  # transfer landed
        store.admit(incoming, "a")
        assert store.replica(incoming.file_id, "a").pinned

    def test_releasing_a_pending_pin_drops_its_key(self):
        store = make_store(capacity_mb=100.0)
        incoming = file_at("incoming", 40.0, "b")
        key = ("a", incoming.file_id)
        store.pin(incoming, "a", "task-1")
        store.pin(incoming, "a", "task-2")
        store.release_task("task-1")
        assert store._pending_pins == {key: {"task-2"}}
        store.release_task("task-2")
        assert store._pending_pins == {}
        # The replica lands unpinned once nobody waits for it.
        incoming.add_location("a")
        store.admit(incoming, "a")
        assert not store.replica(incoming.file_id, "a").pinned

    def test_sole_replica_never_evicted(self):
        store = make_store(capacity_mb=100.0)
        sole = file_at("sole", 90.0, "a")  # only copy anywhere
        store.track(sole)
        new = file_at("new", 50.0, "a")
        assert store.admit(new, "a") == []
        assert sole.available_at("a")

    def test_expendable_sole_replica_is_evictable_until_reclaimed(self):
        store = make_store(capacity_mb=100.0)
        sole = file_at("sole", 90.0, "a")
        store.track(sole)
        store.mark_expendable(sole)
        store.reclaim(sole)  # a new (dynamic-DAG) consumer appeared
        assert store.admit(file_at("new1", 50.0, "a"), "a") == []
        assert sole.available_at("a")
        store.mark_expendable(sole)  # that consumer finished too
        evicted = store.admit(file_at("new2", 40.0, "a"), "a")
        assert [r.file.name for r in evicted] == ["sole"]
        assert not sole.locations


class TestOfflineQuarantine:
    def test_offline_backup_does_not_license_eviction(self):
        # A second copy quarantined at a crashed endpoint must not count as
        # the "other live replica" that makes the reachable copy evictable.
        store = make_store(capacity_mb=100.0)
        f = file_at("x", 80.0, "a", "b")
        store.track(f)
        store.mark_offline("b")
        assert store.admit(file_at("new", 50.0, "a"), "a") == []
        assert f.available_at("a")

    def test_rejoin_restores_evictability(self):
        store = make_store(capacity_mb=100.0)
        f = file_at("x", 80.0, "a", "b")
        store.track(f)
        store.mark_offline("b")
        store.mark_online("b")
        evicted = store.admit(file_at("new", 50.0, "a"), "a")
        assert [r.file.name for r in evicted] == ["x"]

    def test_admit_at_offline_endpoint_defers_eviction_to_rejoin(self):
        # An in-flight arrival landing on a crashed disk must not evict the
        # quarantined replicas promised to survive until rejoin; the budget
        # is settled when the endpoint comes back.
        store = make_store(capacity_mb=100.0)
        x = file_at("x", 80.0, "a", "b")
        store.track(x)
        store.mark_offline("a")
        landed = file_at("landed", 90.0, "a")
        assert store.admit(landed, "a") == []
        assert x.available_at("a")
        assert store.eviction_count == 0
        store.mark_online("a")  # rejoin re-applies the budget
        assert not x.available_at("a")
        assert x.available_at("b")
        assert landed.available_at("a")
        assert store.usage_mb("a") == pytest.approx(90.0)


class TestPolicies:
    def test_lru_evicts_least_recently_touched(self):
        store = make_store(capacity_mb=100.0)
        first = file_at("first", 40.0, "a", "b")
        second = file_at("second", 40.0, "a", "b")
        store.track(first)
        store.track(second)
        store.touch(first, "a")  # first is now more recent
        evicted = store.admit(file_at("new", 40.0, "a"), "a")
        assert [r.file.name for r in evicted] == ["second"]

    def test_cost_benefit_prefers_cheap_to_refetch_bulk(self):
        costs = {"cheap": 1.0, "precious": 100.0}
        store = ReplicaStore(
            {"a": 100.0},
            policy=CostBenefitEviction(),
            refetch_cost=lambda f, ep: costs[f.name],
        )
        cheap = file_at("cheap", 40.0, "a", "b")
        precious = file_at("precious", 40.0, "a", "b")
        store.track(precious)
        store.track(cheap)
        store.touch(cheap, "a")  # recency says evict precious; cost says cheap
        evicted = store.admit(file_at("new", 40.0, "a"), "a")
        assert [r.file.name for r in evicted] == ["cheap"]

    def test_policy_factory(self):
        assert isinstance(create_eviction_policy("lru"), LRUEviction)
        assert isinstance(create_eviction_policy("cost_benefit"), CostBenefitEviction)
        with pytest.raises(ValueError):
            create_eviction_policy("random")

    def test_unbounded_endpoint_never_evicts(self):
        store = make_store()
        for i in range(20):
            store.admit(file_at(f"f{i}", 50.0, "b"), "b")
        assert store.eviction_count == 0


class TestCounters:
    def test_peak_usage_tracked(self):
        store = make_store(capacity_mb=1000.0)
        store.admit(file_at("x", 300.0, "a"), "a")
        store.admit(file_at("y", 400.0, "a"), "a")
        assert store.peak_usage_mb["a"] == pytest.approx(700.0)

    def test_prefetch_waste_counted_on_unused_eviction(self):
        store = make_store(capacity_mb=100.0)
        speculative = file_at("spec", 80.0, "a", "b")
        store.admit(speculative, "a", prefetched=True)
        store.admit(file_at("new", 50.0, "a"), "a")
        assert store.prefetch_wasted == 1
