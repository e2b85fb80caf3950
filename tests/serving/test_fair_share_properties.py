"""Property tests of :class:`FairShareArbitration`, the one allocator.

Over randomized tenant counts, weights, demands and free capacities — in
multi-round sequences against one policy instance, so the cross-round service
deficit accumulates, with advisory (``record_service=False``) rounds
interleaved the way the serving pump interleaves placement slices with
dispatch budgets — every allocation must

* hand out, per endpoint, exactly ``min(max(0, free), Σ demand)`` workers
  (the water-fill wastes nothing and overcommits nothing),
* give every tenant between 0 and its demand on every endpoint,
* add exactly its grants to ``_served`` when it records service and leave
  ``_served`` alone when it is advisory, and
* move ``state_version`` if and only if ``_served`` moved (the serving
  layer's arbitration fingerprint depends on it).
"""

import random

from repro.serving.arbitration import (
    FairShareArbitration,
    TenantShare,
    create_arbitration,
)


def random_problem(rng: random.Random):
    n_tenants = rng.randint(1, 8)
    n_endpoints = rng.randint(1, 5)
    endpoints = [f"ep{i}" for i in range(n_endpoints)]
    tenants = [
        TenantShare(
            workflow_id=f"wf{i}",
            weight=rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 3.5]),
            arrival_index=i,
        )
        for i in range(n_tenants)
    ]
    free = {ep: rng.randint(0, 12) for ep in endpoints}
    demands = {
        t.workflow_id: {
            ep: rng.randint(0, 10) for ep in endpoints if rng.random() < 0.8
        }
        for t in tenants
        if rng.random() < 0.9
    }
    return free, demands, tenants


def check_allocation(policy, free, demands, tenants, *, record_service):
    """Run one ``allocate`` and assert every property above on it."""
    served_before = dict(policy._served)
    version_before = policy.state_version
    allocation = policy.allocate(free, demands, tenants, record_service=record_service)

    assert set(allocation) == {t.workflow_id for t in tenants}
    granted = dict.fromkeys(allocation, 0)
    for endpoint, capacity in free.items():
        total_demand = 0
        total_granted = 0
        for wid, slice_ in allocation.items():
            demand = demands.get(wid, {}).get(endpoint, 0)
            grant = slice_.get(endpoint, 0)
            assert 0 <= grant <= demand
            total_demand += demand
            total_granted += grant
            granted[wid] += grant
        assert total_granted == min(max(0, capacity), total_demand)
    for slice_ in allocation.values():
        assert set(slice_) <= set(free) and all(slice_.values())

    if record_service:
        expected = dict(served_before)
        for wid, count in granted.items():
            if count:
                expected[wid] = expected.get(wid, 0) + count
        assert policy._served == expected
    else:
        assert policy._served == served_before
    assert (policy.state_version != version_before) == (policy._served != served_before)
    return allocation


class TestFairShareProperties:
    def test_multi_round_sequences_with_advisory_rounds(self):
        # 120 policy instances x 25 rounds = 3 000 random problems.
        rng = random.Random(0xB22)
        for _ in range(120):
            policy = FairShareArbitration()
            for _round in range(25):
                free, demands, tenants = random_problem(rng)
                check_allocation(
                    policy, free, demands, tenants, record_service=rng.random() < 0.7
                )

    def test_negative_free_capacity_counts_as_none(self):
        policy = FairShareArbitration()
        tenants = [TenantShare(workflow_id="wf0"), TenantShare(workflow_id="wf1")]
        demands = {"wf0": {"ep0": 2, "ep1": 2}, "wf1": {"ep0": 2}}
        allocation = check_allocation(
            policy, {"ep0": -3, "ep1": 1}, demands, tenants, record_service=True
        )
        assert allocation == {"wf0": {"ep1": 1}, "wf1": {}}

    def test_zero_weight_and_zero_capacity_edges(self):
        # A zero weight is floored, not excluded: equal (tiny) weights split
        # evenly and the odd worker goes to the lower id.
        policy = FairShareArbitration()
        tenants = [
            TenantShare(workflow_id="wf0", weight=0.0, arrival_index=0),
            TenantShare(workflow_id="wf1", weight=0.0, arrival_index=1),
        ]
        free = {"ep0": 0, "ep1": 3}
        demands = {"wf0": {"ep1": 2}, "wf1": {"ep1": 2}}
        allocation = check_allocation(policy, free, demands, tenants, record_service=True)
        assert allocation == {"wf0": {"ep1": 2}, "wf1": {"ep1": 1}}
        # Next round the deficit tie-break favours the tenant rounding
        # shortchanged.
        allocation = check_allocation(policy, free, demands, tenants, record_service=True)
        assert allocation == {"wf0": {"ep1": 1}, "wf1": {"ep1": 2}}

    def test_no_tenants(self):
        assert check_allocation(
            FairShareArbitration(), {"ep0": 4}, {}, [], record_service=True
        ) == {}

    def test_the_factory_and_the_constructor_build_the_same_policy(self):
        rng = random.Random(0xC33)
        built, made = FairShareArbitration(), create_arbitration("fair_share")
        assert type(made) is FairShareArbitration
        for _ in range(50):
            free, demands, tenants = random_problem(rng)
            assert built.allocate(free, demands, tenants) == made.allocate(
                free, demands, tenants
            )
        assert built._served == made._served
        assert built.state_version == made.state_version
