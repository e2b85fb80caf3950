"""FIFO, strict-priority and EDF arbitration against their pre-early-stop copy.

``tests/reference/ordered_drain.py`` keeps the ordered drain as it was: every
tenant walks its whole demand against the whole free vector, and the tenants
are re-sorted on every call.  The product stops granting once capacity is
spent and sorts a share list once.  Every allocation must be ``==`` to the
reference's, including its key order, over inputs with endpoints missing
from ``free``, zero and negative free counts, zero, negative and missing
demands, duplicate and absent tenants, and share lists that are reused,
rebuilt equal, or changed between calls.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.arbitration import (EdfArbitration, FifoArbitration,
                                       StrictPriorityArbitration, TenantShare)
from tests.reference import ordered_drain as reference

ENDPOINTS = ("e0", "e1", "e2", "e3")
WORKFLOWS = ("w0", "w1", "w2", "w3", "w4")

COUNTS = st.integers(min_value=-2, max_value=6)
FREE = st.dictionaries(st.sampled_from(ENDPOINTS), COUNTS, max_size=len(ENDPOINTS))
DEMANDS = st.dictionaries(
    st.sampled_from(WORKFLOWS),
    st.dictionaries(st.sampled_from(ENDPOINTS + ("gone",)), COUNTS, max_size=5),
    max_size=len(WORKFLOWS),
)
SHARES = st.lists(
    st.builds(
        TenantShare,
        workflow_id=st.sampled_from(WORKFLOWS),
        priority=st.integers(0, 2),
        arrival_index=st.integers(0, 3),
        deadline=st.sampled_from([1.0, 2.0, 5.0, float("inf")]),
    ),
    max_size=7,
)
POLICIES = (
    (FifoArbitration, reference.fifo),
    (StrictPriorityArbitration, reference.priority),
    (EdfArbitration, reference.edf),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FREE, DEMANDS, SHARES, st.sampled_from(("new", "same", "copy"))),
                min_size=1, max_size=6))
def test_allocations_equal_the_reference(rounds):
    policies = [(cls(), oracle) for cls, oracle in POLICIES]
    shares = []
    for free, demands, drawn, reuse in rounds:
        if reuse == "new" or not shares:
            shares = drawn
        elif reuse == "copy":
            shares = [TenantShare(**vars(share)) for share in shares]
        for policy, oracle in policies:
            expected = oracle(free, demands, shares)
            got = policy.allocate(free, demands, shares)
            assert got == expected
            assert list(got) == list(expected)
            for workflow_id, slice_ in got.items():
                assert list(slice_) == list(expected[workflow_id])


def test_tenants_after_the_capacity_is_spent_get_empty_slices():
    shares = [TenantShare(workflow_id=w, arrival_index=i) for i, w in enumerate(WORKFLOWS)]
    demands = {w: {"e0": 2, "e1": 1} for w in WORKFLOWS}
    got = FifoArbitration().allocate({"e0": 3, "e1": 1}, demands, shares)
    assert got == {"w0": {"e0": 2, "e1": 1}, "w1": {"e0": 1}, "w2": {}, "w3": {}, "w4": {}}
