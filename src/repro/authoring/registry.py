"""The workload table: every name a ``WorkloadSpec.kind`` can take.

An entry turns a kind into a running workload.  ``build(client, spec)``
composes it on a client or tenant handle and returns its
:class:`WorkloadInfo`; ``task_types(spec)`` names the task types the
execution profiler is pre-trained with.  The static generators of
:mod:`repro.workloads` (``montage``, ``drug_screening``, ``stress``,
``hot_dataset``) are entries that call their builders with the spec's sizing
knobs.  The authored workflows of :mod:`repro.authoring.zoo` (``layered`` and
the ``zoo-*``) are entries made by :func:`authored_entry`: it maps the knobs
onto the definition's declaration parameters and starts a
:class:`~repro.authoring.runtime.WorkflowRun`.  :func:`register_workflow`
adds an authored entry under a new name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.authoring.api import WorkflowDefinition
from repro.authoring.runtime import WorkflowRun
from repro.authoring.zoo import (
    LAYERED,
    ZOO_ARRAY,
    ZOO_CONDITIONAL,
    ZOO_CONVERGENCE,
    ZOO_MIXED,
)
from repro.core.exceptions import WorkflowError
from repro.workloads.drug_screening import DRUG_SCREENING_TYPES, build_drug_screening_workflow
from repro.workloads.montage import MONTAGE_TYPES, build_montage_workflow
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo
from repro.workloads.synthetic import (
    build_hot_dataset_workload,
    build_stress_workload,
    hot_dataset_task_types,
    stress_task_type,
)

__all__ = [
    "RegisteredWorkflow",
    "authored_entry",
    "get_workflow",
    "register_workflow",
    "registered_names",
    "unique_task_types",
]


@dataclass(frozen=True)
class RegisteredWorkflow:
    """One workload kind: how to build it and what to pre-train."""

    name: str
    description: str
    #: ``(client, spec) -> WorkloadInfo``: compose the workload on a client
    #: or tenant handle, sized by the scenario's ``WorkloadSpec``.
    build: Callable[[object, object], WorkloadInfo]
    #: ``spec -> [TaskTypeSpec]``: one spec per task type the build submits.
    task_types: Callable[[object], List[TaskTypeSpec]]
    #: The declaration an authored entry runs (``None`` for a static one).
    definition: Optional[WorkflowDefinition] = None


def unique_task_types(types: List[TaskTypeSpec]) -> List[TaskTypeSpec]:
    """First spec per type name, in order.

    Profiler pre-seeding generates observations *per entry*, so a generator
    declaring one job per DAG node of a shared type must still seed that
    type exactly once — like the static generators do.
    """
    seen: Dict[str, TaskTypeSpec] = {}
    for spec in types:
        if spec.name not in seen:
            seen[spec.name] = spec
    return list(seen.values())


def _no_params(spec) -> dict:
    return {}


def authored_entry(
    definition: WorkflowDefinition,
    params: Callable[[object], dict] = _no_params,
    *,
    name: Optional[str] = None,
    description: str = "",
) -> RegisteredWorkflow:
    """The entry of an authored workflow.

    ``params`` maps the scenario's ``WorkloadSpec`` sizing knobs
    (task_count, duration_s, ...) onto the definition's declaration
    parameters.  The pre-training instantiation is the one the next build
    with equal parameters runs (:meth:`WorkflowDefinition.task_types`).
    """

    def build(client, spec) -> WorkloadInfo:
        run = WorkflowRun(definition, client, params=params(spec))
        run.start()
        run.info.run = run  # type: ignore[attr-defined] — scenario assertions
        return run.info

    def task_types(spec) -> List[TaskTypeSpec]:
        return unique_task_types(definition.task_types(**params(spec)))

    return RegisteredWorkflow(
        name=name or definition.name,
        description=description,
        build=build,
        task_types=task_types,
        definition=definition,
    )


def _synthetic_params(spec) -> dict:
    return {
        "duration_s": spec.duration_s,
        "output_mb": spec.output_mb,
    }


_REGISTRY: Dict[str, RegisteredWorkflow] = {
    entry.name: entry
    for entry in (
        RegisteredWorkflow(
            name="montage",
            description="Montage mosaic (Fig. 8 right), sized by WorkloadSpec.scale",
            build=lambda client, spec: build_montage_workflow(client, scale=spec.scale),
            task_types=lambda spec: list(MONTAGE_TYPES.values()),
        ),
        RegisteredWorkflow(
            name="drug_screening",
            description="drug-screening pipeline (Fig. 8 left), sized by WorkloadSpec.scale",
            build=lambda client, spec: build_drug_screening_workflow(
                client, scale=spec.scale
            ),
            task_types=lambda spec: list(DRUG_SCREENING_TYPES.values()),
        ),
        RegisteredWorkflow(
            name="stress",
            description="independent fixed-duration stress tasks (Figs. 6-7)",
            build=lambda client, spec: build_stress_workload(
                client, spec.task_count, spec.duration_s, output_mb=spec.output_mb
            ),
            task_types=lambda spec: [stress_task_type(spec.duration_s, spec.output_mb)],
        ),
        RegisteredWorkflow(
            name="hot_dataset",
            description="a wide consumer fan over a few hot shared input files",
            build=lambda client, spec: build_hot_dataset_workload(
                client,
                spec.task_count,
                spec.duration_s,
                output_mb=spec.output_mb,
                prepare_width=spec.layer_width,
                shared_files=spec.shared_files,
                shared_mb=spec.shared_mb,
            ),
            task_types=lambda spec: hot_dataset_task_types(spec.duration_s, spec.output_mb),
        ),
        authored_entry(
            LAYERED,
            lambda spec: {
                "task_count": spec.task_count,
                "layer_width": spec.layer_width,
                **_synthetic_params(spec),
            },
            description="layered DAG, each task after two of the previous layer",
        ),
        authored_entry(
            ZOO_CONDITIONAL,
            _synthetic_params,
            description="postcondition-driven branching with a recovery edge",
        ),
        authored_entry(
            ZOO_CONVERGENCE,
            _synthetic_params,
            description="iterate-until-metric loop with a bounded trip count",
        ),
        authored_entry(
            ZOO_ARRAY,
            lambda spec: {"width": spec.task_count, **_synthetic_params(spec)},
            description="wide array fan-out expanding lazily in batches",
        ),
        authored_entry(
            ZOO_MIXED,
            lambda spec: {"width": spec.task_count, "duration_s": spec.duration_s},
            description="conditional + loop + poison-failure recovery + 10k array",
        ),
    )
}


def register_workflow(
    definition: WorkflowDefinition,
    *,
    name: Optional[str] = None,
    description: str = "",
    params: Callable[[object], dict] = _no_params,
) -> RegisteredWorkflow:
    """Add an authored workflow to the table under ``name`` (its own name
    by default)."""
    entry = authored_entry(definition, params, name=name, description=description)
    if entry.name in _REGISTRY:
        raise WorkflowError(f"workflow {entry.name!r} already registered")
    _REGISTRY[entry.name] = entry
    return entry


def get_workflow(name: str) -> RegisteredWorkflow:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkflowError(
            f"unknown workflow {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_names() -> List[str]:
    return sorted(_REGISTRY)
