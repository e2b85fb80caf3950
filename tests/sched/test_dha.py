"""Tests for the DHA scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import TaskState
from repro.core.exceptions import EndpointError
from repro.faas.types import TaskExecutionRecord
from repro.sched.dha import DHAScheduler

from tests.sched.conftest import EndpointSpec, add_task, build_context, input_file, place

QIMING_HW = (24.0, 2.6, 64.0)
TAIYI_HW = (40.0, 2.4, 192.0)


def build(endpoints, **kwargs):
    bundle = build_context(endpoints)
    scheduler = DHAScheduler(**kwargs)
    scheduler.initialize(bundle.context)
    return bundle, scheduler


def observe(bundle, fn_name, endpoint, duration, hw):
    """Feed the execution profiler an observation for (function, endpoint)."""
    bundle.execution_profiler.observe(
        TaskExecutionRecord(
            task_id="obs",
            endpoint=endpoint,
            function_name=fn_name,
            success=True,
            submitted_at=0.0,
            started_at=0.0,
            completed_at=duration,
            input_mb=0.0,
            output_mb=1.0,
            cores_per_node=int(hw[0]),
            cpu_freq_ghz=hw[1],
            ram_gb=hw[2],
        )
    )


def reference_slice(graph, priorities, new_tasks):
    """DHA's recompute slice as first written: every affected task's
    successors scanned, out-degrees counted over successor lists, ids
    sorted wherever order matters."""
    affected = {t.task_id for t in new_tasks if t.task_id in graph}
    stack = list(affected)
    while stack:
        task_id = stack.pop()
        for successor in graph.successors(task_id):
            if successor.task_id not in affected and successor.task_id not in priorities:
                affected.add(successor.task_id)
                stack.append(successor.task_id)
        for dep in graph.get(task_id).dependencies:
            if dep not in affected:
                affected.add(dep)
                stack.append(dep)
    out_degree = {
        task_id: sum(1 for s in graph.successors(task_id) if s.task_id in affected)
        for task_id in affected
    }
    queue = sorted(task_id for task_id, degree in out_degree.items() if degree == 0)
    head = 0
    while head < len(queue):
        task_id = queue[head]
        head += 1
        for dep in sorted(graph.get(task_id).dependencies):
            if dep in affected:
                out_degree[dep] -= 1
                if out_degree[dep] == 0:
                    queue.append(dep)
    return queue


class TestRecomputeSlice:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_slice_is_the_full_scan_slice(self, data):
        # Whether or not some task outside the seeds still lacks a priority
        # (then a prioritised ancestor's successors must be scanned too).
        bundle, scheduler = build({"a": EndpointSpec()})
        graph = bundle.graph
        tasks = []
        for _ in range(data.draw(st.integers(1, 30))):
            deps = data.draw(st.sets(st.sampled_from(tasks), max_size=3)) if tasks else set()
            tasks.append(add_task(graph, deps=sorted(deps, key=lambda t: t.task_id)))
        prioritised = data.draw(st.sets(st.sampled_from(tasks)))
        scheduler._priorities = {t.task_id: 1.0 for t in prioritised}
        seeds = data.draw(st.lists(st.sampled_from(tasks), min_size=1, max_size=5))
        got = scheduler._affected_reverse_topological(graph, seeds)
        assert [t.task_id for t in got] == reference_slice(graph, scheduler._priorities, seeds)


class TestPriorities:
    def test_chain_priorities_decrease_downstream(self):
        bundle, scheduler = build({"a": EndpointSpec()})
        t1 = add_task(bundle.graph)
        t2 = add_task(bundle.graph, deps=[t1])
        t3 = add_task(bundle.graph, deps=[t2])
        scheduler.on_workflow_submitted([t1, t2, t3])
        assert scheduler.priority(t1.task_id) > scheduler.priority(t2.task_id)
        assert scheduler.priority(t2.task_id) > scheduler.priority(t3.task_id)
        # The recursion of eq. 2 makes the root's priority the whole chain.
        assert t1.priority == pytest.approx(3 * scheduler.priority(t3.task_id))

    def test_priority_includes_successor_maximum(self):
        bundle, scheduler = build({"a": EndpointSpec(), "b": EndpointSpec()})
        root = add_task(bundle.graph)
        light = add_task(bundle.graph, deps=[root])
        # Heavy's input sits on "a" only, so its average staging time over the
        # two endpoints is non-zero while light's stays zero.
        heavy = add_task(bundle.graph, deps=[root], input_files=[input_file(500.0, "a")])
        assert bundle.graph.store.input_mb[heavy._row] == 500.0
        scheduler.on_workflow_submitted([root, light, heavy])
        assert scheduler.priority(root.task_id) >= scheduler.priority(heavy.task_id)
        assert scheduler.priority(heavy.task_id) > scheduler.priority(light.task_id)

    def test_priorities_recomputed_for_dynamic_tasks(self):
        bundle, scheduler = build({"a": EndpointSpec()})
        t1 = add_task(bundle.graph)
        scheduler.on_workflow_submitted([t1])
        t2 = add_task(bundle.graph, deps=[t1])
        scheduler.on_tasks_added([t2])
        assert scheduler.priority(t2.task_id) > 0

    def test_dynamic_tasks_update_only_new_tasks_and_ancestors(self):
        # Growing the DAG recomputes the new tasks and their ancestors, not
        # the whole graph: an unrelated branch keeps its priority object
        # untouched while the extended chain's root rises.
        bundle, scheduler = build({"a": EndpointSpec()})
        chain_root = add_task(bundle.graph)
        unrelated = add_task(bundle.graph)
        scheduler.on_workflow_submitted([chain_root, unrelated])
        unrelated_before = scheduler.priority(unrelated.task_id)
        root_before = scheduler.priority(chain_root.task_id)

        sweeps_before = scheduler._priority_epoch
        leaf = add_task(bundle.graph, deps=[chain_root])
        scheduler.on_tasks_added([leaf])
        assert scheduler._priority_epoch == sweeps_before + 1
        # The ancestor gained its new successor's rank; the unrelated branch
        # kept its exact value.
        assert scheduler.priority(chain_root.task_id) > root_before
        assert scheduler.priority(unrelated.task_id) == unrelated_before
        assert scheduler.priority(leaf.task_id) > 0

    def test_missing_priority_fallback_ranks_whole_downstream_chain(self):
        # Direct library use: schedule() without any on_workflow_submitted.
        # The missing-priority fallback must still give a ready task its full
        # upward rank — its unprioritised descendants are part of the
        # recompute slice, not silently treated as rank 0.
        bundle, scheduler = build({"a": EndpointSpec()})
        root = add_task(bundle.graph)
        mid = add_task(bundle.graph, deps=[root])
        leaf = add_task(bundle.graph, deps=[mid])
        scheduler.schedule([root])
        assert scheduler.priority(root.task_id) == pytest.approx(
            3 * scheduler.priority(leaf.task_id)
        )

    def test_incremental_recompute_matches_full_recompute(self):
        # The incremental sweep must land on the same numbers a full sweep
        # would (same profiler generation, so d and w are unchanged).
        bundle, scheduler = build({"a": EndpointSpec(), "b": EndpointSpec()})
        layer1 = [add_task(bundle.graph) for _ in range(3)]
        layer2 = [add_task(bundle.graph, deps=layer1[:2]) for _ in range(2)]
        scheduler.on_workflow_submitted(layer1 + layer2)
        added = [add_task(bundle.graph, deps=layer2) for _ in range(2)]
        scheduler.on_tasks_added(added)
        incremental = dict(scheduler._priorities)

        fresh_bundle, fresh = build({"a": EndpointSpec(), "b": EndpointSpec()})
        mapping = {}
        for task in bundle.graph.topological_order():
            deps = [mapping[d] for d in sorted(task.dependencies)]
            clone = add_task(fresh_bundle.graph, deps=deps)
            mapping[task.task_id] = clone
        fresh.on_workflow_submitted(list(mapping.values()))
        for old_id, clone in mapping.items():
            assert incremental[old_id] == fresh.priority(clone.task_id)


class TestSortCache:
    def test_unchanged_ready_set_is_not_resorted(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=4)})
        tasks = [add_task(bundle.graph) for _ in range(5)]
        scheduler.on_workflow_submitted(tasks)
        scheduler.schedule(tasks)
        sorts = scheduler.sort_count
        scheduler.schedule(tasks)  # same set, same priorities: cache hit
        scheduler.schedule(tasks)
        assert scheduler.sort_count == sorts

    def test_changed_set_or_priorities_resort(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=4)})
        tasks = [add_task(bundle.graph) for _ in range(5)]
        scheduler.on_workflow_submitted(tasks)
        scheduler.schedule(tasks)
        sorts = scheduler.sort_count
        scheduler.schedule(tasks[:3])  # different set: dirty
        assert scheduler.sort_count == sorts + 1
        sorts = scheduler.sort_count
        extra = add_task(bundle.graph)
        scheduler.on_tasks_added([extra])  # priority epoch moved: dirty
        scheduler.schedule(tasks[:3])
        assert scheduler.sort_count == sorts + 1

    def test_cached_order_is_correct(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=1)})
        root = add_task(bundle.graph)
        leaf = add_task(bundle.graph, deps=[root])
        scheduler.on_workflow_submitted([root, leaf])
        first = scheduler.schedule([leaf, root])
        second = scheduler.schedule([leaf, root])
        assert [p.task_id for p in first] == [root.task_id, leaf.task_id]
        assert [p.task_id for p in second] == [root.task_id, leaf.task_id]


class TestEndpointSelection:
    def test_prefers_faster_hardware_when_profiled(self):
        bundle, scheduler = build(
            {"qiming": EndpointSpec(workers=8, cores=24, freq=2.6, ram=64, speed=1.0),
             "taiyi": EndpointSpec(workers=8, cores=40, freq=2.4, ram=192, speed=1.45)}
        )
        # Profile: the function runs 100 s on Qiming-class and 60 s on Taiyi-class nodes.
        for _ in range(6):
            observe(bundle, "generic_work", "qiming", 100.0, QIMING_HW)
            observe(bundle, "generic_work", "taiyi", 60.0, TAIYI_HW)
        bundle.execution_profiler.update_models(force=True)

        task = add_task(bundle.graph)
        scheduler.on_workflow_submitted([task])
        placements = scheduler.schedule([task])
        assert placements[0].endpoint == "taiyi"

    def test_prefers_faster_speed_factor_without_profile(self):
        bundle, scheduler = build(
            {"slow": EndpointSpec(workers=8, speed=1.0), "fast": EndpointSpec(workers=8, speed=1.5)}
        )
        task = add_task(bundle.graph)
        placements = scheduler.schedule([task])
        assert placements[0].endpoint == "fast"

    def test_data_gravity_can_outweigh_speed(self):
        bundle, scheduler = build(
            {"slow": EndpointSpec(workers=8, speed=1.0), "fast": EndpointSpec(workers=8, speed=1.2)},
        )
        # Huge input sitting on the slow endpoint: moving it costs far more
        # than the execution-speed benefit.
        task = add_task(bundle.graph, input_files=[input_file(5000.0, "slow")])
        placements = scheduler.schedule([task])
        assert placements[0].endpoint == "slow"

    def test_tasks_scheduled_in_priority_order(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=1)})
        root = add_task(bundle.graph)
        leaf = add_task(bundle.graph, deps=[root])
        scheduler.on_workflow_submitted([root, leaf])
        placements = scheduler.schedule([leaf, root])
        assert placements[0].task_id == root.task_id

    def test_backlog_spreads_load(self):
        bundle, scheduler = build(
            {"a": EndpointSpec(workers=2), "b": EndpointSpec(workers=2)}
        )
        tasks = [add_task(bundle.graph) for _ in range(8)]
        scheduler.on_workflow_submitted(tasks)
        placements = scheduler.schedule(tasks)
        endpoints = {p.endpoint for p in placements}
        assert endpoints == {"a", "b"}


class TestDelayMechanism:
    def test_allowance_is_the_mocked_free_capacity(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=1)})
        t1 = add_task(bundle.graph)
        t2 = add_task(bundle.graph)
        scheduler.on_workflow_submitted([t1, t2])
        for p in scheduler.schedule([t1, t2]):
            place(bundle.graph, bundle.graph.get(p.task_id), p.endpoint, TaskState.STAGED)

        assert scheduler.dispatch_allowance("a") == 1
        # Occupy the single worker.
        bundle.monitor.record_dispatch("a")
        bundle.graph.set_state(t1, TaskState.DISPATCHED)
        assert scheduler.claimed("a") == 1
        assert scheduler.dispatch_allowance("a") == 0
        # Worker frees up -> dispatch allowed again.
        bundle.monitor.record_completion("a")
        assert scheduler.dispatch_allowance("a") == 1

    def test_delay_mechanism_can_be_disabled(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=0)}, enable_delay_mechanism=False)
        assert scheduler.dispatch_allowance("a") is None

    def test_unmonitored_endpoint_is_an_error(self):
        bundle, scheduler = build({"a": EndpointSpec(workers=4)})
        with pytest.raises(EndpointError):
            scheduler.dispatch_allowance("nowhere")


class TestRescheduling:
    def _scheduled_pending_task(self, bundle, scheduler, endpoint):
        task = add_task(bundle.graph)
        scheduler.on_workflow_submitted([task])
        placement = scheduler.schedule([task])[0]
        task.assigned_endpoint = placement.endpoint
        bundle.graph.set_state(task, TaskState.STAGED)
        return task

    def test_steals_tasks_to_idle_endpoint(self):
        bundle, scheduler = build(
            {"busy": EndpointSpec(workers=2, busy=2, speed=1.5), "idle": EndpointSpec(workers=4, speed=1.0)}
        )
        # Force the pending task onto the busy endpoint to simulate a stale decision.
        task = add_task(bundle.graph)
        scheduler.on_workflow_submitted([task])
        place(bundle.graph, task, "busy", TaskState.STAGED)

        moves = scheduler.reschedule([task])
        assert len(moves) == 1
        assert moves[0].endpoint == "idle"
        assert scheduler.rescheduled_count == 1

    def test_no_move_when_target_has_no_capacity(self):
        bundle, scheduler = build(
            {"busy": EndpointSpec(workers=2, busy=2), "alsobusy": EndpointSpec(workers=2, busy=2)}
        )
        task = add_task(bundle.graph)
        scheduler.on_workflow_submitted([task])
        place(bundle.graph, task, "busy")
        assert scheduler.reschedule([task]) == []

    def test_no_move_when_current_endpoint_can_start_task(self):
        bundle, scheduler = build(
            {"current": EndpointSpec(workers=4), "other": EndpointSpec(workers=4)}
        )
        task = add_task(bundle.graph)
        scheduler.on_workflow_submitted([task])
        task.assigned_endpoint = "current"
        assert scheduler.reschedule([task]) == []

    def test_rescheduling_disabled(self):
        bundle, scheduler = build(
            {"busy": EndpointSpec(workers=1, busy=1), "idle": EndpointSpec(workers=4)},
            enable_rescheduling=False,
        )
        task = add_task(bundle.graph)
        task.assigned_endpoint = "busy"
        assert scheduler.reschedule([task]) == []

    def test_noop_pass_is_skipped_until_something_changes(self):
        # A re-scheduling pass whose inputs are identical to a previous
        # no-move pass is provably another no-op and must short-circuit;
        # any endpoint-state change re-opens it.
        bundle, scheduler = build(
            {"current": EndpointSpec(workers=4), "other": EndpointSpec(workers=4)}
        )
        task = add_task(bundle.graph)
        scheduler.on_workflow_submitted([task])
        task.assigned_endpoint = "current"
        assert scheduler.reschedule([task]) == []
        fingerprint = scheduler._resched_noop_fingerprint
        assert fingerprint is not None
        assert scheduler.reschedule([task]) == []
        assert scheduler._resched_noop_fingerprint == fingerprint
        # Capacity moved (a dispatch): the fingerprint no longer matches.
        bundle.monitor.record_dispatch("current")
        assert scheduler._reschedule_fingerprint(bundle.context, [task]) != fingerprint

    def test_data_locality_respected_when_stealing(self):
        bundle, scheduler = build(
            {
                "busy": EndpointSpec(workers=1, busy=1),
                "near": EndpointSpec(workers=2),
                "far": EndpointSpec(workers=2),
            }
        )
        task = add_task(bundle.graph, input_files=[input_file(2000.0, "near")])
        scheduler.on_workflow_submitted([task])
        place(bundle.graph, task, "busy", TaskState.STAGED)
        moves = scheduler.reschedule([task])
        assert moves and moves[0].endpoint == "near"
