"""The replica store's incrementally kept evictable set is the brute-force one.

``brute_force_candidates`` is the store's victim scan as it was before the
set existed: a pass over every replica of the endpoint.  After any sequence
of store and file operations the kept set must equal it at every budgeted
endpoint, and the victim the store picks there must be the brute-force
minimum, for both eviction policies.  An endpoint without a budget never
evicts, so no set is kept for it at all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.remote_file import GlobusFile
from repro.dataplane.replica_store import ReplicaStore, create_eviction_policy

ENDPOINTS = ("a", "b", "c")
TASKS = ("t0", "t1")
FILE_COUNT = 4


def brute_force_candidates(store, endpoint, protect=None):
    return [
        replica
        for file_id, replica in store._replicas.get(endpoint, {}).items()
        if file_id != protect
        and not replica.pinned
        and (store._has_reachable_backup(replica, endpoint) or file_id in store._expendable)
        and replica.file.available_at(endpoint)
    ]


def brute_force_victim(store, endpoint, protect=None):
    candidates = brute_force_candidates(store, endpoint, protect)
    if not candidates:
        return None

    def refetch(replica):
        if replica.file.file_id in store._expendable:
            return 0.0
        return store._refetch_cost(replica.file, endpoint)

    return min(candidates, key=lambda r: store.policy.key(r, refetch(r)))


def assert_index_matches(store):
    for endpoint in ENDPOINTS:
        kept = set(store._evictable.get(endpoint, {}))
        if store.capacity_mb(endpoint) is None:
            assert kept == set()
            continue
        expected = {r.file.file_id for r in brute_force_candidates(store, endpoint)}
        assert kept == expected
        for protect in (None, *sorted(expected)[:1]):
            assert store._select_victim(endpoint, protect) is brute_force_victim(
                store, endpoint, protect
            )


FILES = st.integers(min_value=0, max_value=FILE_COUNT - 1)
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("admit", "add_location", "remove_location")), FILES,
                  st.sampled_from(ENDPOINTS)),
        st.tuples(st.sampled_from(("track", "mark_expendable", "reclaim", "touch_all")), FILES),
        st.tuples(st.just("pin"), FILES, st.sampled_from(ENDPOINTS), st.sampled_from(TASKS)),
        st.tuples(st.just("release_task"), st.sampled_from(TASKS)),
        st.tuples(st.sampled_from(("mark_offline", "mark_online")), st.sampled_from(ENDPOINTS)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(OPS, st.sampled_from(("lru", "cost_benefit")), st.sampled_from((None, 60.0, 150.0)))
def test_evictable_set_equals_brute_force(ops, policy, capacity_mb):
    files = [GlobusFile(f"f{i}", size_mb=10.0 * (i + 1)) for i in range(FILE_COUNT)]
    # A refetch cost that depends on where else the file lives, like the
    # data plane's: the kept set must feed the policy the same inputs.
    store = ReplicaStore(
        {"a": capacity_mb, "b": capacity_mb, "c": None},
        policy=create_eviction_policy(policy),
        refetch_cost=lambda file, endpoint: float(
            sum(ord(loc) for loc in file.locations if loc != endpoint)
        ),
    )
    # Start from a catalog with backups, so pins and releases flip membership.
    for i, file in enumerate(files):
        file.add_location(ENDPOINTS[i % 3])
        file.add_location(ENDPOINTS[(i + 1) % 3])
        store.track(file)
    assert_index_matches(store)
    for op in ops:
        name = op[0]
        if name == "admit":
            files[op[1]].add_location(op[2])
            store.admit(files[op[1]], op[2])
        elif name in ("add_location", "remove_location"):
            getattr(files[op[1]], name)(op[2])
        elif name == "touch_all":
            for endpoint in ENDPOINTS:
                store.touch(files[op[1]], endpoint)
        elif name in ("track", "mark_expendable", "reclaim"):
            getattr(store, name)(files[op[1]])
        elif name == "pin":
            store.pin(files[op[1]], op[2], op[3])
        else:
            getattr(store, name)(op[1])
        assert_index_matches(store)
    assert store.victim_scans >= store.eviction_count
    assert store.victim_candidates_examined >= store.eviction_count


def test_over_budget_arrivals_with_nothing_evictable_examine_nothing():
    # dataplane-hot's regime: sole-replica outputs pile up beyond the budget.
    store = ReplicaStore({"a": 100.0})
    for i in range(50):
        store.admit(GlobusFile(f"out{i}", size_mb=10.0, location="a"), "a")
    assert store.eviction_count == 0
    assert store.peak_overflow_mb == 400.0
    assert store.victim_scans == 40
    assert store.victim_candidates_examined == 0


def test_a_store_without_budgets_never_evaluates_evictability(monkeypatch):
    def evaluated(self, replica):
        raise AssertionError(f"evictability of {replica.file.name} at {replica.endpoint}")

    monkeypatch.setattr(ReplicaStore, "_is_evictable", evaluated)
    store = ReplicaStore({"a": None})
    files = [GlobusFile(f"f{i}", size_mb=10.0, location="a") for i in range(3)]
    for file in files:
        store.track(file)
    store.pin(files[0], "a", "t0")
    store.pin(files[1], "b", "t0")  # not there yet
    files[1].add_location("b")
    assert store.admit(files[1], "b") == []
    files[2].add_location("c")
    files[2].remove_location("a")
    store.mark_expendable(files[0])
    store.reclaim(files[0])
    store.mark_offline("b")
    store.mark_online("b")
    store.release_task("t0")
    # Pins and usage are kept as before; only the eviction index is not.
    assert store.usage_mb("a") == 30.0 and store.usage_mb("b") == 10.0
    assert not any(store.replica(f.file_id, "a").pinned for f in files)
    assert store._pins_by_task == {}
    assert store._evictable == {}


@pytest.mark.parametrize("budget", (None, 100.0))
def test_pins_and_recency_do_not_depend_on_the_budget(budget):
    store = ReplicaStore({"a": budget})
    file = GlobusFile("f", size_mb=10.0, location="a")
    file.add_location("b")
    store.track(file)
    store.pin(file, "a", "t0")
    replica = store.replica(file.file_id, "a")
    assert replica.pinned_by == {"t0"}
    touched = replica.last_touch
    store.touch(file, "a")
    assert replica.used and replica.last_touch > touched
    store.release_task("t0")
    assert not replica.pinned
    if budget is None:
        assert store._evictable == {}
    else:
        assert set(store._evictable["a"]) == {file.file_id}
