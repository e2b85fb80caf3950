"""The loop-form fair-share apportionment against its comprehension-form copy.

``tests/reference/fair_share.py`` keeps ``largest_remainder_split`` and
``FairShareArbitration.allocate`` as they were written before the loop-form
rewrite.  Every case here runs the product and the reference side by side
and asserts ``==`` on what the scenario artifacts depend on: the split, each
allocation, the cumulative ``_served`` deficit and the ``state_version``
the serving layer's arbitration fingerprint reads.  The inputs reach the
edges the rewrite could get wrong: zero and tiny weights, caps that bind,
spill and lack keys, tie-break ties, negative totals and free capacity, and
multi-round sequences with advisory (``record_service=False``) rounds
interleaved.  The two cap-only call sites (the elastic scaler's shortfall
split and the placement solver's worker targets) are driven end to end with
either function bound.
"""

import random

import pytest

from repro.core.rounding import largest_remainder_split
from repro.elastic import scaling
from repro.elastic.scaling import DefaultScalingStrategy, EndpointView
from repro.placement import solver
from repro.placement.plan import PlacementPlan
from repro.placement.solver import PlacementProblem
from repro.serving.arbitration import FairShareArbitration, TenantShare
from tests.reference import fair_share as reference


def random_split_case(rng: random.Random):
    keys = [f"k{i}" for i in range(rng.randint(0, 9))]
    rng.shuffle(keys)  # insertion order is part of the input
    choices = [0.0, -1.0, 1e-9, 1.0, 1.0, 2.5, rng.uniform(0.01, 50.0)]
    weights = {k: rng.choice(choices) for k in keys}
    caps = None
    if rng.random() < 0.7:
        # Caps may bind, be zero or negative, or be missing for a key.
        caps = {k: rng.randint(-2, 30) for k in keys if rng.random() < 0.9}
    tiebreak = None
    if rng.random() < 0.6:
        # Few distinct values, so equal remainders often also tie here.
        tiebreak = {k: rng.choice([0.0, 0.5, 0.5, 1.0]) for k in keys if rng.random() < 0.9}
    total = rng.randint(-5, 120)
    return total, weights, caps, tiebreak


@pytest.mark.parametrize("seed", range(4))
def test_split_equals_the_reference(seed):
    rng = random.Random(0x5EED + seed)
    for _ in range(1500):
        total, weights, caps, tiebreak = random_split_case(rng)
        expected = reference.largest_remainder_split(total, weights, caps=caps, tiebreak=tiebreak)
        got = largest_remainder_split(total, weights, caps=caps, tiebreak=tiebreak)
        assert got == expected
        assert list(got) == list(expected)  # same key order too


def test_split_ties_resolve_by_tiebreak_then_key():
    weights = {"b": 1.0, "a": 1.0, "c": 1.0}
    for tiebreak in (None, {"a": 1.0, "b": 1.0, "c": 0.0}, {"c": 2.0}):
        for total in range(0, 7):
            assert largest_remainder_split(
                total, weights, tiebreak=tiebreak
            ) == reference.largest_remainder_split(total, weights, tiebreak=tiebreak)


def random_round(rng: random.Random, wids):
    endpoints = [f"ep{i}" for i in range(rng.randint(1, 5))]
    tenants = [
        TenantShare(
            workflow_id=wid,
            weight=rng.choice([0.0, 1e-9, 0.5, 1.0, 1.0, 2.0, 3.5]),
            arrival_index=index,
        )
        for index, wid in enumerate(rng.sample(wids, rng.randint(0, len(wids))))
    ]
    free = {ep: rng.randint(-4, 12) for ep in endpoints}
    demands = {
        t.workflow_id: {ep: rng.randint(0, 10) for ep in endpoints if rng.random() < 0.8}
        for t in tenants
        if rng.random() < 0.9
    }
    return free, demands, tenants


@pytest.mark.parametrize("seed", range(4))
def test_multi_round_allocations_equal_the_reference(seed):
    rng = random.Random(0xFA1 + seed)
    wids = [f"wf{i}" for i in range(7)]
    for _ in range(40):
        product, ref = FairShareArbitration(), reference.ReferenceFairShareArbitration()
        for _round in range(30):
            free, demands, tenants = random_round(rng, wids)
            record = rng.random() < 0.6
            before = (product.state_version, ref.state_version)
            got = product.allocate(free, demands, tenants, record_service=record)
            expected = ref.allocate(free, demands, tenants, record_service=record)
            assert got == expected
            assert product._served == ref._served
            assert product.state_version - before[0] == ref.state_version - before[1]
            assert product.state_version == ref.state_version


def test_equal_deficits_and_negative_free():
    # Equal weights and equal service: every leftover unit is a full tie
    # (remainder, deficit), resolved by id; negative free grants nothing.
    tenants = [TenantShare(workflow_id=f"wf{i}") for i in range(3)]
    demands = {t.workflow_id: {"ep0": 5, "ep1": 5, "ep2": 1} for t in tenants}
    product, ref = FairShareArbitration(), reference.ReferenceFairShareArbitration()
    for free in ({"ep0": 4, "ep1": -2, "ep2": 2}, {"ep0": 1, "ep1": 5, "ep2": 0}, {"ep0": -1}):
        for record in (True, False, True):
            assert product.allocate(free, demands, tenants, record_service=record) == ref.allocate(
                free, demands, tenants, record_service=record
            )
            assert product._served == ref._served
            assert product.state_version == ref.state_version


# ------------------------------------------------------------ cap-only calls
def bind(monkeypatch, module, function):
    monkeypatch.setattr(module, "largest_remainder_split", function)


@pytest.mark.parametrize("with_plan", [False, True])
def test_scaling_shortfall_split_equals_the_reference(monkeypatch, with_plan):
    rng = random.Random(0x5CA1E + with_plan)
    for _ in range(300):
        names = [f"ep{i}" for i in range(rng.randint(1, 5))]
        endpoints = {}
        for name in names:
            active = rng.randint(0, 20)
            endpoints[name] = EndpointView(
                name=name,
                active_workers=active,
                idle_workers=rng.randint(0, active),
                outstanding_tasks=rng.randint(0, 30),
                max_workers=active + rng.randint(0, 12),
            )
        strategy = DefaultScalingStrategy(
            caps={n: rng.randint(0, 30) for n in names if rng.random() < 0.3}
        )
        if with_plan:
            plan = PlacementPlan(
                generation=1,
                solved_at=0.0,
                warm_endpoints=tuple(names),
                worker_targets={n: rng.randint(0, 30) for n in names},
            )
            strategy.plan_provider = lambda plan=plan: plan
        pending = rng.randint(0, 150)
        bind(monkeypatch, scaling, reference.largest_remainder_split)
        expected = strategy.decide(pending, endpoints)
        bind(monkeypatch, scaling, largest_remainder_split)
        got = strategy.decide(pending, endpoints)
        assert got == expected


def test_solver_worker_targets_equal_the_reference(monkeypatch):
    rng = random.Random(0x501)
    for _ in range(300):
        names = [f"ep{i}" for i in range(rng.randint(1, 6))]
        problem = PlacementProblem(
            endpoints=names,
            max_workers={n: rng.randint(0, 40) for n in names},
            capacity_mb={n: None for n in names},
            perf={n: rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.1, 9.0)]) for n in names},
            demand=rng.randint(-3, 200),
        )
        monkeypatch.setattr(solver, "_MIN_WORKERS", rng.randint(0, 3))
        warm = tuple(sorted(rng.sample(names, rng.randint(0, len(names)))))
        bind(monkeypatch, solver, reference.largest_remainder_split)
        expected = solver._worker_targets(problem, warm)
        bind(monkeypatch, solver, largest_remainder_split)
        assert solver._worker_targets(problem, warm) == expected
