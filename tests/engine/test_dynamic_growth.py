"""Runtime DAG growth after ``start()``: the batched ``on_tasks_added`` contract.

The authoring runtime grows the graph while the engine is pumping; these
tests pin the engine-side guarantees that growth relies on:

- tasks submitted mid-run only become visible to the scheduler at the next
  pump round, in a *single* ``on_tasks_added`` batch per round;
- the ready set respects future-valued dependencies of grown tasks (children
  added mid-run wait for their parents);
- DHA recomputes priorities for the grown slice, so every new task carries a
  priority;
- the columnar ``TaskStore`` allocates rows for mid-run tasks.
"""

from repro.engine.events import TasksCompleted
from repro.workloads.spec import TaskTypeSpec, make_task_type

from tests.integration.conftest import build_two_site_env

WORK = make_task_type(TaskTypeSpec(name="growth_work", duration_s=0.5, output_mb=1.0))


def make_client():
    env = build_two_site_env()
    return env.make_client(env.make_config("DHA"))


class _AddSpy:
    """Wrap ``scheduler.on_tasks_added`` and record each batch's task ids."""

    def __init__(self, scheduler):
        self.batches = []
        self._inner = scheduler.on_tasks_added
        scheduler.on_tasks_added = self

    def __call__(self, tasks):
        self.batches.append([t.task_id for t in tasks])
        self._inner(tasks)


class _CompletionLog:
    """Successful completions in delivery order."""

    def __init__(self, bus):
        self.order = []
        bus.subscribe(TasksCompleted, self._on_batch)

    def _on_batch(self, event):
        self.order.extend(task.task_id for task in event.tasks)


def test_growth_batches_ready_set_and_priorities():
    client = make_client()
    engine = client.engine
    spy = _AddSpy(engine.scheduler)
    log = _CompletionLog(client.bus)

    root = client.submit(WORK, (), {})
    state = {"children": [], "grandchild": None}

    def grow():
        # First wave: five children of the root, added in one pump round.
        if root.done() and not state["children"]:
            state["children"] = [
                client.submit(WORK, (root,), {}) for _ in range(5)
            ]
        # Second wave: one grandchild once every child finished.
        elif state["children"] and state["grandchild"] is None:
            if all(f.done() for f in state["children"]):
                state["grandchild"] = client.submit(WORK, tuple(state["children"]), {})

    engine.add_growth_hook(grow)
    client.run(max_wall_time_s=60.0)

    children = state["children"]
    grandchild = state["grandchild"]
    assert len(children) == 5 and grandchild is not None
    assert root.done() and grandchild.done()
    assert all(f.done() for f in children)

    # Batching: each growth wave reached the scheduler as ONE call — the
    # five children together, then the grandchild.  (The pre-start root is
    # part of the initial graph, not a growth batch.)
    assert [len(b) for b in spy.batches] == [5, 1]
    assert set(spy.batches[0]) == {f.task_id for f in children}

    # Ready-set correctness: nothing ran before its future-valued parents.
    position = {task_id: i for i, task_id in enumerate(log.order)}
    assert len(position) == 7
    for child in children:
        assert position[root.task_id] < position[child.task_id]
        assert position[child.task_id] < position[grandchild.task_id]

    # DHA recomputed priorities for the grown slice.
    priorities = engine.scheduler._priorities
    for future in [root, grandchild, *children]:
        assert future.task_id in priorities
        task = engine.graph.get(future.task_id)
        assert task.priority == priorities[future.task_id]


def test_pending_additions_defer_until_drain():
    # submit() during a run must not touch the scheduler directly; the batch
    # sits in _pending_added until drain_growth() flushes it.
    client = make_client()
    engine = client.engine
    spy = _AddSpy(engine.scheduler)

    root = client.submit(WORK, (), {})
    observed = {}

    def grow():
        if root.done() and not observed:
            client.submit(WORK, (root,), {})
            client.submit(WORK, (root,), {})
            observed["pending_after_submit"] = len(engine._pending_added)
            observed["batches_at_submit"] = len(spy.batches)

    engine.add_growth_hook(grow)
    client.run(max_wall_time_s=60.0)

    assert observed["pending_after_submit"] == 2
    # No growth batch had reached the scheduler when the hook ran...
    assert observed["batches_at_submit"] == 0
    # ...and the two grown tasks arrived later as a single batch.
    assert [len(b) for b in spy.batches] == [2]
    assert not engine._pending_added


def test_task_store_allocates_rows_mid_run():
    client = make_client()
    engine = client.engine
    store = engine.graph.store
    assert store is not None

    root = client.submit(WORK, (), {})
    rows_at_start = len(store)
    grown = []

    def grow():
        if root.done() and not grown:
            grown.extend(client.submit(WORK, (root,), {}) for _ in range(3))

    engine.add_growth_hook(grow)
    client.run(max_wall_time_s=60.0)

    assert len(grown) == 3
    assert len(store) == rows_at_start + 3
    rows = [engine.graph.get(f.task_id)._row for f in [root, *grown]]
    assert len(set(rows)) == 4
    for future in grown:
        assert future.done()


def test_drain_growth_reports_progress_and_is_idempotent():
    client = make_client()
    engine = client.engine
    fired = []
    engine.add_growth_hook(lambda: fired.append(True))
    # No pending tasks, hooks fire, graph unchanged -> no progress.
    assert engine.drain_growth() is False
    assert fired == [True]
    client.submit(WORK, (), {})
    # Pre-start submissions go straight to the graph, not _pending_added.
    assert not engine._pending_added
