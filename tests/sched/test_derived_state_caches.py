"""Shared scheduling state derived once per version of its inputs.

Two caches sit under DHA's hot path:

* the plan-warm mask (``DHAScheduler._warm_mask``), derived once per
  immutable :class:`~repro.placement.plan.PlacementPlan` object and endpoint
  list, and handed out read-only;
* the per-file staging cost rows (``PredictionIndex._file_costs``), keyed by
  a file's location stamp and dropped with the file-bearing staging rows
  when the transfer predictions or the crash quarantine move.

These tests pin when each one must be recomputed and that what it serves is
what a recomputation from scratch would give.
"""

import numpy as np
import pytest

from repro.core.dag import TaskState
from repro.placement.plan import PlacementPlan
from repro.sched import vector
from repro.sched.dha import DHAScheduler
from tests.profiling.test_profilers import transfer_result
from tests.sched.conftest import EndpointSpec, add_task, build_context, input_file, place
from tests.sched.test_staging_quarantine import bundle_with_plane


# -------------------------------------------------------------- warm mask
class PlanHolder:
    def __init__(self, plan=None):
        self.plan = plan

    def __call__(self):
        return self.plan


def plan(*warm, roots=None, generation=1):
    return PlacementPlan(
        generation=generation,
        solved_at=0.0,
        warm_endpoints=tuple(sorted(warm)),
        replica_roots=dict(roots or {}),
    )


def planned_dha():
    bundle = build_context(
        {
            "a": EndpointSpec(workers=1, busy=1),
            "b": EndpointSpec(workers=4),
            "c": EndpointSpec(workers=4),
            "d": EndpointSpec(workers=2),
        }
    )
    scheduler = DHAScheduler()
    scheduler.initialize(bundle.context)
    holder = PlanHolder()
    scheduler.plan_provider = holder
    return bundle, scheduler, holder


def test_a_new_plan_gives_a_new_mask():
    bundle, scheduler, holder = planned_dha()
    names = bundle.context.ensure_arrays().endpoint_names
    assert scheduler._warm_mask(holder.plan, names) is None  # no plan

    holder.plan = plan("a", "b")
    first = scheduler._warm_mask(holder.plan, names)
    assert first.tolist() == [True, True, False, False]
    assert scheduler._warm_mask(holder.plan, names) is first  # same plan: derived once
    assert not first.flags.writeable

    holder.plan = plan("b", "c", generation=2)
    second = scheduler._warm_mask(holder.plan, names)
    assert second is not first
    assert second.tolist() == [False, True, True, False]
    assert first.tolist() == [True, True, False, False]  # the old one untouched

    # An equal plan is still a new plan object: derived again, same values.
    holder.plan = plan("b", "c", generation=2)
    third = scheduler._warm_mask(holder.plan, names)
    assert third is not second and third.tolist() == second.tolist()

    # Another endpoint list under the same plan is another mask.
    assert scheduler._warm_mask(holder.plan, ["c", "d"]).tolist() == [True, False]
    assert scheduler._warm_mask(holder.plan, names).tolist() == [False, True, True, False]

    # Every endpoint warm, or none listed: no restriction.
    holder.plan = plan("a", "b", "c", "d")
    assert scheduler._warm_mask(holder.plan, names) is None
    holder.plan = plan("elsewhere")
    assert scheduler._warm_mask(holder.plan, names) is None


def test_schedule_reschedule_and_hints_never_mutate_the_cached_mask():
    bundle, scheduler, holder = planned_dha()
    graph = bundle.graph
    hot = input_file(300.0, "d")
    holder.plan = plan("a", "b", "d", roots={hot.file_id: "d"})
    names = bundle.context.ensure_arrays().endpoint_names
    mask = scheduler._warm_mask(holder.plan, names)
    snapshot = mask.copy()

    tasks = [add_task(graph) for _ in range(4)]
    tasks += [add_task(graph, input_files=[hot]) for _ in range(3)]
    scheduler.on_workflow_submitted(tasks)
    placements = scheduler.schedule(tasks)
    assert {p.endpoint for p in placements} <= {"a", "b", "d"}
    assert scheduler.placement_hint(tasks[0], {"b": 3}) in {"a", "b", "d"}
    assert scheduler.placement_hint(tasks[-1]) == "d"

    # Pin every task on the saturated endpoint and let the pass steal them.
    for task in tasks:
        place(graph, task, "a", TaskState.STAGED)
    moves = scheduler.reschedule(tasks)
    # Warm candidates first; the overflow past their spare may go cold.
    assert moves and moves[0].endpoint in {"b", "d"}

    assert scheduler._warm_mask(holder.plan, names) is mask
    assert np.array_equal(mask, snapshot)
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


# ------------------------------------------------------ per-file cost rows
def counted_cost_rows(index):
    """Count the cost rows ``index`` builds from scratch."""
    built = []
    build = index._file_cost_row

    def spy(file):
        built.append(file.file_id)
        return build(file)

    index._file_cost_row = spy
    return built


def assert_cells_exact(index, context, tasks):
    rows = index.rows(tasks, default=1.0)
    for task, row in zip(tasks, rows):
        for column, name in enumerate(index.endpoint_names):
            assert index.staging_matrix[row, column] == context.predicted_staging_time(task, name)


@pytest.mark.parametrize("published", [True, False], ids=["published", "multi-source"])
def test_cost_rows_are_recomputed_exactly_when_their_inputs_move(published):
    bundle, plane = bundle_with_plane(published=published)
    context = bundle.context
    index = context.ensure_arrays()
    shared, own_a, own_b = input_file(96.0, "a"), input_file(250.0, "b"), input_file(40.0, "c")
    shared.add_location("c")
    # Two different file sets share ``shared``: it is costed once for both.
    tasks = [add_task(bundle.graph, input_files=[shared, own_a]) for _ in range(3)]
    tasks += [add_task(bundle.graph, input_files=[own_b, shared]) for _ in range(3)]
    built = counted_cost_rows(index)

    assert_cells_exact(index, context, tasks)
    assert sorted(built) == sorted([shared.file_id, own_a.file_id, own_b.file_id])

    # A replica move renews one file's stamp: only that file is costed again.
    del built[:]
    own_a.add_location("c")
    assert_cells_exact(index, context, tasks)
    assert built == [own_a.file_id]

    # A crash and a rejoin move the quarantine generation: everything again.
    # The published policy keeps no quarantine, so nothing moves there.
    for change in (plane.on_endpoint_crashed, plane.on_endpoint_rejoined):
        del built[:]
        change("c")
        assert_cells_exact(index, context, tasks)
        expected = [] if published else [shared.file_id, own_a.file_id, own_b.file_id]
        assert sorted(built) == sorted(expected)

    # A transfer observation (and a refit) moves every transfer prediction.
    refits = 0
    for refit in (
        lambda: bundle.transfer_profiler.observe(
            transfer_result(src="a", dst="b", size=96.0, duration=3.0)
        ),
        bundle.transfer_profiler.update_models,
    ):
        del built[:]
        version = bundle.transfer_profiler.prediction_version
        refit()
        if bundle.transfer_profiler.prediction_version == version:
            continue  # nothing moved, nothing to recompute
        refits += 1
        assert_cells_exact(index, context, tasks)
        assert sorted(built) == sorted([shared.file_id, own_a.file_id, own_b.file_id])
    assert refits

    # Nothing moved: served from the rows, nothing built.
    del built[:]
    for task in tasks:
        context.invalidate_task(task.task_id)
    assert_cells_exact(index, context, tasks)
    assert built == []


def test_cost_rows_stay_bounded(monkeypatch):
    monkeypatch.setattr(vector, "_STAGING_ROWS_CAP", 8)
    bundle = build_context({n: EndpointSpec() for n in "abc"})
    context = bundle.context
    index = context.ensure_arrays()
    files = [input_file(10.0 + i, "abc"[i % 3]) for i in range(40)]
    tasks = [add_task(bundle.graph, input_files=[f]) for f in files]
    for start in range(0, len(tasks), 5):
        assert_cells_exact(index, context, tasks[start:start + 5])
        assert len(index._file_costs) <= 8
    files[0].add_location("c")
    assert_cells_exact(index, context, tasks[:1])
    assert len(index._file_costs) <= 8
