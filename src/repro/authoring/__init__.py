"""Decorator-based workflow authoring over the dynamic task graph.

Public surface::

    from repro.authoring import job, after, require, ensure, workflow
    from repro.authoring import WorkflowRun

See :mod:`repro.authoring.api` for the declaration semantics,
:mod:`repro.authoring.runtime` for the execution model,
:mod:`repro.authoring.zoo` for the scenario-zoo workflows, and
:mod:`repro.authoring.registry` for the table of every workload kind a
scenario can name.
"""

from repro.authoring.api import (
    EDGE_STATUSES,
    Job,
    JobEdge,
    WorkflowDefinition,
    after,
    ensure,
    job,
    require,
    workflow,
)
from repro.authoring.registry import (
    RegisteredWorkflow,
    get_workflow,
    register_workflow,
    registered_names,
)
from repro.authoring.runtime import ARRAY_BATCH, JobOutcome, WorkflowRun

__all__ = [
    "ARRAY_BATCH",
    "EDGE_STATUSES",
    "Job",
    "JobEdge",
    "JobOutcome",
    "RegisteredWorkflow",
    "WorkflowDefinition",
    "WorkflowRun",
    "after",
    "ensure",
    "get_workflow",
    "job",
    "register_workflow",
    "registered_names",
    "require",
    "workflow",
]
