"""Declaration surface of the authoring API: decorators, edges, validation."""

import pytest

from repro.authoring.api import (
    Job,
    WorkflowDefinition,
    after,
    ensure,
    job,
    require,
    workflow,
)
from repro.authoring.registry import (
    get_workflow,
    register_workflow,
    registered_names,
    unique_task_types,
)
from repro.core.exceptions import WorkflowError
from repro.workloads.spec import TaskTypeSpec


class TestDeclaration:
    def test_job_outside_workflow_body_is_an_error(self):
        with pytest.raises(WorkflowError, match="outside a @workflow"):

            @job
            def stray():
                pass

    def test_bare_and_parametrized_decorator_forms(self):
        @workflow
        def wf():
            @job
            def plain():
                pass

            @job(duration_s=3.0, output_mb=2.5, cores=4, retries=2)
            def tuned():
                pass

        jobs = wf.instantiate()
        assert [j.name for j in jobs] == ["plain", "tuned"]
        assert jobs[0].duration_s == 1.0 and jobs[0].retries is None
        tuned = jobs[1]
        assert tuned.duration_s == 3.0
        assert tuned.output_mb == 2.5
        assert tuned.task_type.cores == 4
        assert tuned.retries == 2

    def test_workflow_name_defaults_and_overrides(self):
        @workflow
        def alpha():
            @job
            def a():
                pass

        @workflow(name="custom")
        def beta():
            @job
            def b():
                pass

        assert alpha.name == "alpha"
        assert beta.name == "custom"

    def test_each_instantiation_yields_fresh_jobs(self):
        @workflow
        def wf():
            @job
            def a():
                pass

        first = wf.instantiate()
        second = wf.instantiate()
        assert first[0] is not second[0]

    def test_parameters_reach_the_body(self):
        @workflow
        def wf(width=2):
            @job(array=width)
            def fan():
                pass

        assert wf.instantiate()[0].array == 2
        assert wf.instantiate(width=7)[0].array == 7

    def test_empty_workflow_is_an_error(self):
        @workflow
        def wf():
            pass

        with pytest.raises(WorkflowError, match="declares no jobs"):
            wf.instantiate()

    def test_duplicate_job_names_are_an_error(self):
        @workflow
        def wf():
            @job(name="dup")
            def a():
                pass

            @job(name="dup")
            def b():
                pass

        with pytest.raises(WorkflowError, match="declares job 'dup' twice"):
            wf.instantiate()


class TestJobValidation:
    def _declare(self, **kwargs):
        @workflow
        def wf():
            @job(**kwargs)
            def j():
                pass

        return wf.instantiate()

    def test_array_must_be_positive(self):
        with pytest.raises(WorkflowError, match="array size"):
            self._declare(array=0)

    def test_loop_needs_both_knobs(self):
        with pytest.raises(WorkflowError, match="both max_trips and until"):
            self._declare(max_trips=3)
        with pytest.raises(WorkflowError, match="both max_trips and until"):
            self._declare(until=lambda t: True)

    def test_max_trips_must_be_positive(self):
        with pytest.raises(WorkflowError, match="max_trips must be >= 1"):
            self._declare(max_trips=0, until=lambda t: True)

    def test_array_and_loop_are_exclusive(self):
        with pytest.raises(WorkflowError, match="both an array and a loop"):
            self._declare(array=4, max_trips=2, until=lambda t: True)


class TestEdges:
    def test_after_decorator_and_fluent_form_agree(self):
        @workflow
        def wf():
            @job
            def parent():
                pass

            @after(parent)
            @job
            def via_decorator():
                pass

            @job
            def via_method():
                pass

            via_method.after(parent, status="failure")

        parent, deco, fluent = wf.instantiate()
        assert [(e.parent.name, e.status) for e in deco.edges] == [("parent", "success")]
        assert [(e.parent.name, e.status) for e in fluent.edges] == [("parent", "failure")]

    def test_unknown_edge_status_is_an_error(self):
        @workflow
        def wf():
            @job
            def parent():
                pass

            @job
            def child():
                pass

            child.after(parent, status="sometimes")

        with pytest.raises(WorkflowError, match="unknown edge status"):
            wf.instantiate()

    def test_self_dependency_is_an_error(self):
        @workflow
        def wf():
            @job
            def a():
                pass

            a.after(a)

        with pytest.raises(WorkflowError, match="cannot depend on itself"):
            wf.instantiate()

    def test_edge_parent_must_be_a_job(self):
        @workflow
        def wf():
            @job
            def a():
                pass

            a.after("not a job")

        with pytest.raises(WorkflowError, match="expects Job objects"):
            wf.instantiate()

    def test_cross_instantiation_edges_are_an_error(self):
        @workflow
        def donor():
            @job
            def d():
                pass

        foreign = donor.instantiate()[0]

        @workflow
        def wf():
            @job
            def child():
                pass

            child.after(foreign)

        with pytest.raises(WorkflowError, match="different workflow instantiation"):
            wf.instantiate()

    def test_condition_decorators_must_wrap_a_job(self):
        for decorator in (after(), require(lambda i: True), ensure(lambda i: True)):
            with pytest.raises(WorkflowError, match="applied above @job"):
                decorator(lambda: None)

    def test_require_and_ensure_attach_predicates(self):
        pre = lambda i: i > 0  # noqa: E731
        post = lambda i: i < 5  # noqa: E731

        @workflow
        def wf():
            @require(pre)
            @ensure(post)
            @job
            def guarded():
                pass

        guarded = wf.instantiate()[0]
        assert guarded.preconditions == [pre]
        assert guarded.postconditions == [post]


class TestTaskTypes:
    def test_function_name_shares_one_task_type_across_jobs(self):
        @workflow
        def wf():
            for i in range(3):
                job(
                    lambda: None,
                    name=f"node_{i}",
                    function_name="shared_type",
                    duration_s=2.0,
                )

        types = wf.instantiate()
        assert all(j.task_type.name == "shared_type" for j in types)
        assert len({j.name for j in types}) == 3
        assert len(unique_task_types([j.task_type for j in types])) == 1

    def test_equal_task_types_share_one_spec_and_one_function(self):
        @workflow
        def wf():
            for i in range(3):
                job(lambda: None, name=f"node_{i}", function_name="node", duration_s=2.0)
            job(lambda: None, name="slow", function_name="node", duration_s=3.0)
            job(lambda: None, name="other", duration_s=2.0)

        first = wf.instantiate()
        nodes, slow, other = first[:3], first[3], first[4]
        assert all(j.task_type is nodes[0].task_type for j in nodes)
        assert all(j.function is nodes[0].function for j in nodes)
        # A different duration or a different type name is a different type.
        for distinct in (slow, other):
            assert distinct.task_type is not nodes[0].task_type
            assert distinct.function is not nodes[0].function
        # Each instantiation declares its own types.
        again = wf.instantiate()[0]
        assert again.task_type == nodes[0].task_type
        assert again.task_type is not nodes[0].task_type
        assert again.function is not nodes[0].function

    def test_task_types_hands_its_instantiation_to_the_next_one(self):
        bodies = []

        @workflow
        def wf(width=2):
            bodies.append(width)
            for i in range(width):
                job(lambda: None, name=f"node_{i}", function_name="node")

        types = wf.task_types(width=3)
        first = wf.instantiate(width=3)
        assert bodies == [3]
        assert [j.task_type for j in first] == types
        # Handed out once: the next instantiation runs the body again.
        again = wf.instantiate(width=3)
        assert bodies == [3, 3]
        assert again[0] is not first[0]
        # Other parameters never take it.
        wf.task_types(width=3)
        assert len(wf.instantiate(width=4)) == 4
        assert bodies == [3, 3, 3, 4]

    def test_unique_task_types_keeps_first_per_name_in_order(self):
        specs = [
            TaskTypeSpec(name="a", duration_s=1.0, output_mb=0.0),
            TaskTypeSpec(name="b", duration_s=2.0, output_mb=0.0),
            TaskTypeSpec(name="a", duration_s=9.0, output_mb=0.0),
        ]
        deduped = unique_task_types(specs)
        assert [s.name for s in deduped] == ["a", "b"]
        assert deduped[0].duration_s == 1.0


class TestRegistry:
    def test_zoo_is_registered(self):
        names = registered_names()
        for name in (
            "zoo-conditional",
            "zoo-convergence",
            "zoo-array",
            "zoo-mixed",
            "layered",
        ):
            assert name in names

    def test_duplicate_registration_is_an_error(self):
        @workflow(name="zoo-conditional")
        def impostor():
            @job
            def a():
                pass

        with pytest.raises(WorkflowError, match="already registered"):
            register_workflow(impostor)

    def test_unknown_workflow_lookup_raises(self):
        with pytest.raises(WorkflowError, match="unknown workflow"):
            get_workflow("no-such-workflow")

    def test_zoo_definitions_instantiate(self):
        authored = [
            get_workflow(name)
            for name in registered_names()
            if get_workflow(name).definition is not None
        ]
        assert {entry.name for entry in authored} >= {"layered", "zoo-mixed"}
        for entry in authored:
            assert entry.task_types(_SpecStub()), entry.name


class _SpecStub:
    """Quacks like WorkloadSpec for the registry param mappers."""

    task_count = 16
    duration_s = 0.1
    output_mb = 1.0
    layer_width = 4


def test_job_repr_uses_the_name():
    @workflow
    def wf():
        @job(name="visible")
        def a():
            pass

    assert isinstance(wf, WorkflowDefinition)
    j = wf.instantiate()[0]
    assert isinstance(j, Job)
    assert "visible" in repr(j)
