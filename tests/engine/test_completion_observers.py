"""A completion is described once: every record — failed or successful —
reaches the same three observers, in the same order, at one call site
(:meth:`ExecutionEngine._handle_completions`); only then is a failed attempt
announced on the bus, where the §IV-G ladder picks it up.
"""

from repro.authoring.api import after, job, workflow
from repro.authoring.runtime import JobOutcome, WorkflowRun
from repro.engine.events import TaskCompleted, TaskFailed, TaskPlaced, expand_event

from tests.integration.conftest import build_two_site_env

OBSERVERS = ["endpoint_monitor", "task_monitor", "metrics"]


@workflow
def poisoned():
    # Poison pill (the tests/authoring fixture): fails on every endpoint with
    # the retry budget at zero, so the ladder reassigns once and gives up.
    @job(duration_s=0.5, retries=0, failure_rate=1.0)
    def flaky():
        pass

    @job(duration_s=0.5)
    def healthy():
        pass

    @after(flaky, status="failure")
    @job(duration_s=0.5)
    def recovery():
        pass


def spy(timeline, owner, method, label):
    inner = getattr(owner, method)

    def wrapper(*args, **kwargs):
        timeline.append((label,))
        return inner(*args, **kwargs)

    setattr(owner, method, wrapper)


def test_failed_and_successful_records_reach_the_same_observers_in_order():
    env = build_two_site_env()
    client = env.make_client(env.make_config("DHA"))
    engine = client.engine
    # No observer rides the bus: the event's one engine handler is the ladder.
    assert len(engine.bus._handlers[TaskCompleted]) == 1
    timeline = []
    spy(timeline, engine.endpoint_monitor, "record_completion", "endpoint_monitor")
    spy(timeline, engine.task_monitor, "observe_task", "task_monitor")
    spy(timeline, engine.metrics, "record_completion", "metrics")
    client.bus.subscribe_all(
        lambda event: timeline.append(("event", event))
        if isinstance(event, (TaskCompleted, TaskFailed, TaskPlaced))
        else timeline.extend(("log",) + entry for entry in expand_event(event))
    )
    run = WorkflowRun(poisoned, client).start()
    client.run(max_wall_time_s=60.0)
    assert run.outcomes() == {
        "flaky": JobOutcome.FAILURE,
        "healthy": JobOutcome.SUCCESS,
        "recovery": JobOutcome.SUCCESS,
    }

    # One chunk per record: from one endpoint-monitor call to the next.
    starts = [i for i, entry in enumerate(timeline) if entry == ("endpoint_monitor",)]
    chunks = [timeline[a:b] for a, b in zip(starts, starts[1:] + [len(timeline)])]
    failed_chunks = []
    succeeded = 0
    for chunk in chunks:
        # The three observers, in order, before anything else happens.
        assert [entry[0] for entry in chunk[:3]] == OBSERVERS
        assert not any(entry[0] in OBSERVERS for entry in chunk[3:])
        announced = [e[1] for e in chunk[3:] if e[0] == "event"]
        if announced and isinstance(announced[0], TaskCompleted):
            failed_chunks.append(announced)
        else:
            # A success is logged as a TaskCompleted entry of the round's
            # batch, never published as a TaskCompleted event.
            assert not any(isinstance(event, TaskCompleted) for event in announced)
            succeeded += 1
    assert succeeded == 2  # healthy, recovery

    # The poison pill failed once per endpoint.  Each failed attempt was
    # announced as TaskCompleted(success=False) *before* the ladder's own
    # event: a reassignment first, the terminal failure second.
    assert len(failed_chunks) == 2
    for announced in failed_chunks:
        assert announced[0].name == "flaky" and not announced[0].success
        assert sum(isinstance(event, TaskCompleted) for event in announced) == 1
    assert isinstance(failed_chunks[0][1], TaskPlaced)
    assert failed_chunks[0][1].name == "flaky"
    assert failed_chunks[0][1].endpoint != failed_chunks[0][0].endpoint
    assert isinstance(failed_chunks[1][1], TaskFailed)
    assert failed_chunks[1][1].name == "flaky"

    # The log's TaskCompleted entries cover both kinds, with the flag.
    completions = [
        (entry[3], entry[5])
        for entry in timeline
        if entry[0] == "log" and entry[2] == "TaskCompleted"
    ] + [
        (entry[1].name, entry[1].success)
        for entry in timeline
        if entry[0] == "event" and isinstance(entry[1], TaskCompleted)
    ]
    assert sorted(completions) == [
        ("flaky", False), ("flaky", False), ("healthy", True), ("recovery", True),
    ]
