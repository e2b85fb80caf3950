"""Named authored workflows, addressable from :class:`ScenarioSpec`.

A registered workflow turns a ``WorkloadSpec.kind`` string into a live
:class:`~repro.authoring.runtime.WorkflowRun`: the scenario layer resolves
the name here, the entry maps the spec's sizing knobs onto the definition's
parameters, and ``build`` starts the run against a client or tenant handle.
The static generators' kinds (``montage``, ``drug_screening``, ``stress``,
``hot_dataset``) resolve in ``scenarios/spec.py`` and never reach this
module; every other kind, ``layered`` included, is a name registered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.authoring.api import WorkflowDefinition
from repro.authoring.runtime import WorkflowRun
from repro.core.exceptions import WorkflowError
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo

__all__ = [
    "RegisteredWorkflow",
    "build_registered",
    "get_workflow",
    "is_registered",
    "register_workflow",
    "registered_names",
    "unique_task_types",
]


def _no_params(spec) -> dict:
    return {}


@dataclass(frozen=True)
class RegisteredWorkflow:
    """One named zoo workflow plus its WorkloadSpec-to-params mapping."""

    name: str
    definition: WorkflowDefinition
    description: str = ""
    #: Maps the scenario's ``WorkloadSpec`` sizing knobs (task_count,
    #: duration_s, ...) onto the definition's declaration parameters.
    params: Callable[[object], dict] = field(default=_no_params)

    def task_types(self, spec) -> List[TaskTypeSpec]:
        """Unique task types of one instantiation (profiler pre-training)."""
        return unique_task_types(self.definition.task_types(**self.params(spec)))


def unique_task_types(types: List[TaskTypeSpec]) -> List[TaskTypeSpec]:
    """First spec per type name, in order.

    Profiler pre-seeding generates observations *per entry*, so a generator
    declaring one job per DAG node of a shared type must still seed that
    type exactly once — like the legacy static generators do.
    """
    seen: Dict[str, TaskTypeSpec] = {}
    for spec in types:
        if spec.name not in seen:
            seen[spec.name] = spec
    return list(seen.values())


_REGISTRY: Dict[str, RegisteredWorkflow] = {}


def register_workflow(
    definition: WorkflowDefinition,
    *,
    name: Optional[str] = None,
    description: str = "",
    params: Callable[[object], dict] = _no_params,
) -> RegisteredWorkflow:
    entry = RegisteredWorkflow(
        name=name or definition.name,
        definition=definition,
        description=description,
        params=params,
    )
    if entry.name in _REGISTRY:
        raise WorkflowError(f"workflow {entry.name!r} already registered")
    _REGISTRY[entry.name] = entry
    return entry


def is_registered(name: str) -> bool:
    _ensure_zoo_loaded()
    return name in _REGISTRY


def get_workflow(name: str) -> RegisteredWorkflow:
    _ensure_zoo_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkflowError(
            f"unknown workflow {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_names() -> List[str]:
    _ensure_zoo_loaded()
    return sorted(_REGISTRY)


def build_registered(
    name: str, client, spec, *, info: Optional[WorkloadInfo] = None
) -> WorkloadInfo:
    """Start a registered workflow on ``client`` (scenario entry point).

    Returns the run's :class:`WorkloadInfo`; it keeps filling in as deferred
    stages materialize during execution.  The run object itself is reachable
    as ``info.run`` for tests and scenario assertions.
    """
    entry = get_workflow(name)
    run = WorkflowRun(
        entry.definition, client, params=entry.params(spec), info=info
    )
    run.start()
    run.info.run = run  # type: ignore[attr-defined] — inspection backdoor
    return run.info


_ZOO_LOADED = False


def _ensure_zoo_loaded() -> None:
    # The zoo registers itself on import; resolve lazily to avoid a cycle
    # (zoo -> registry).
    global _ZOO_LOADED
    if not _ZOO_LOADED:
        _ZOO_LOADED = True
        from repro.authoring import zoo  # noqa: F401
