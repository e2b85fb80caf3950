"""The published staging policy against §IV-E as written.

``tests/reference/fifo_staging.py`` is the paper's FIFO data manager.  The
data plane under ``published=True`` must make the same moves on the same
inputs: the same transfers started in the same order, the same ticket
outcomes, notifications and counters.  Links fail, so transfer retries —
their source re-picks and their place at the tail of a link — are exercised
here and nowhere else (no preset sets a link failure rate).
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.remote_file import GlobusFile
from repro.data.transfer import SimulatedTransferBackend
from repro.dataplane.plane import DataPlane
from repro.sim.kernel import SimulationKernel
from repro.sim.network import LinkSpec, NetworkModel

from tests.reference.fifo_staging import DataManager

ENDPOINTS = ("a", "b", "c")
#: Workflow namespaces of the staged tasks ("" is the single-workflow path);
#: every ticket notifies its own namespace's callback and no other.
NAMESPACES = ("", "wf0", "wf1")


class RecordingBackend(SimulatedTransferBackend):
    """Logs every transfer attempt as ``(file, src, dst)``."""

    def __init__(self, kernel, network, log):
        super().__init__(kernel, network)
        self.log = log

    def start(self, request, on_done):
        self.log.append((request.file.name, request.src, request.dst))
        super().start(request, on_done)


files_st = st.lists(
    st.tuples(
        st.sampled_from([0.0, 5.0, 40.0, 200.0]),
        st.lists(st.sampled_from(ENDPOINTS), min_size=1, max_size=3, unique=True),
    ),
    min_size=1,
    max_size=6,
)
links_st = st.lists(
    st.tuples(
        st.sampled_from(ENDPOINTS),
        st.sampled_from(ENDPOINTS),
        st.sampled_from([10.0, 50.0, 400.0]),
        st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    ),
    max_size=6,
)
op_st = st.one_of(
    # Stage (or re-stage, superseding a live ticket) a task's inputs.
    st.tuples(
        st.just("stage"),
        st.integers(0, 3),
        st.lists(st.integers(0, 5), max_size=3),
        st.sampled_from(ENDPOINTS),
        st.sampled_from([0.0, 1.0, 7.5]),
    ),
    # A task produced a file on an endpoint; later stages may read it.
    st.tuples(
        st.just("output"), st.sampled_from([0.0, 5.0, 40.0]), st.sampled_from(ENDPOINTS)
    ),
    # Let transfers progress before the next operation.
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 2.0, 10.0])),
)
case_st = st.fixed_dictionaries(
    {
        "files": files_st,
        "links": links_st,
        "failure_rate": st.sampled_from([0.05, 0.3, 0.6]),
        "max_concurrent": st.integers(1, 4),
        "max_retries": st.integers(0, 3),
        "seed": st.integers(0, 2**16),
        "ops": st.lists(op_st, max_size=16),
    }
)


def replay(build, case):
    kernel = SimulationKernel()
    # A uniform network with some directed links overridden.
    uniform = LinkSpec(bandwidth_mbps=100.0, jitter=0.1, failure_rate=case["failure_rate"])
    links = {(src, dst): uniform for src in ENDPOINTS for dst in ENDPOINTS if src != dst}
    for src, dst, bandwidth, failure_rate in case["links"]:
        if src != dst:
            links[(src, dst)] = LinkSpec(
                bandwidth_mbps=bandwidth, jitter=0.1, failure_rate=failure_rate
            )
    network = NetworkModel(links=links, default_link=uniform, seed=case["seed"])
    starts = []
    manager = build(
        RecordingBackend(kernel, network, starts),
        kernel.clock,
        max_concurrent_transfers=case["max_concurrent"],
        max_retries=case["max_retries"],
    )
    notified = []
    for namespace in NAMESPACES:
        manager.add_staged_callback(
            lambda ticket, owner=namespace: notified.append((owner, ticket)), namespace
        )
    files = []
    for index, (size_mb, replicas) in enumerate(case["files"]):
        file = GlobusFile(f"f{index}", size_mb=size_mb, location=replicas[0])
        for endpoint in replicas[1:]:
            file.add_location(endpoint)
        files.append(file)

    tickets = []
    for op in case["ops"]:
        if op[0] == "stage":
            _, task, inputs, destination, priority = op
            task_id = f"wf{task % 2}/task-{task}" if task % 3 else f"task-{task}"
            chosen = [files[i % len(files)] for i in inputs]
            tickets.append(manager.stage(task_id, chosen, destination, priority=priority))
        elif op[0] == "output":
            # A fresh file, as the engine registers task outputs.  (Adding an
            # existing file's replica where it is being transferred to would
            # let the paper's retry re-pick pick the destination as source.)
            output = GlobusFile(f"out{len(files)}", size_mb=op[1])
            manager.register_output(output, op[2])
            files.append(output)
        else:
            kernel.run(until=kernel.clock.now + op[1])
    kernel.run()

    return {
        "starts": starts,
        "tickets": [
            (t.namespace, t.completed_at, t.failed, t.superseded, t.transferred_mb)
            for t in tickets
        ],
        "notified": [
            (owner, next(i for i, t in enumerate(tickets) if t is n)) for owner, n in notified
        ],
        "volume_by_namespace_mb": dict(manager.volume_by_namespace_mb),
        "total_transferred_mb": manager.total_transferred_mb,
        "transfer_count": manager.transfer_count,
        "failed_transfer_count": manager.failed_transfer_count,
        "retry_count": manager.retry_count,
    }


def published_plane(backend, clock, **kwargs):
    return DataPlane(backend, clock, published=True, **kwargs)


@settings(max_examples=500, deadline=None)
@given(case_st)
def test_published_policy_moves_what_the_reference_moves(case):
    assert replay(published_plane, case) == replay(DataManager, case)


def test_a_retry_waits_behind_the_link_queue():
    # One slot on a->b, whose first attempt fails: the paper's manager puts
    # the retry behind the transfer queued meanwhile, not back at the head.
    case = {
        "files": [(40.0, ["a"]), (40.0, ["a"])],
        "links": [("a", "b", 100.0, 0.0)],
        "failure_rate": 0.05,
        "max_concurrent": 1,
        "max_retries": 1,
        "seed": 0,
        "ops": [("stage", 1, [0], "b", 0.0), ("stage", 2, [1], "b", 0.0)],
    }
    attempts = []

    def fail_the_first_attempt(self, src, dst):
        attempts.append((src, dst))
        return len(attempts) == 1

    with mock.patch.object(NetworkModel, "sample_failure", fail_the_first_attempt):
        product = replay(published_plane, case)
        attempts.clear()
        reference = replay(DataManager, case)
    assert product["starts"] == reference["starts"] == [
        ("f0", "a", "b"), ("f1", "a", "b"), ("f0", "a", "b"),
    ]
    assert product == reference
