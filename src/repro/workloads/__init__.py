"""The static workload generators (§V, §VI).

* :mod:`repro.workloads.drug_screening` — the drug-screening pipeline
  (24 001 functions, ~220 s average task, 480 GB of data; Fig. 8 left).
* :mod:`repro.workloads.montage` — the Montage mosaic workflow (11 340
  functions; the paper's 108 h and 673 GB, the generator's 18.3 h and
  652.9 GB of outputs; Fig. 8 right).
* :mod:`repro.workloads.synthetic` — CPU-stress tasks and random DAGs used by
  the scalability and elasticity experiments (Figs. 6 and 7), and the hot
  shared dataset of the data-plane scenarios.

Each one composes its DAG straight through the client.  The authoring
registry (:mod:`repro.authoring.registry`) names them as the ``montage``,
``drug_screening``, ``stress`` and ``hot_dataset`` workload kinds, beside the
authored workflows of :mod:`repro.authoring.zoo`.
"""

from repro.workloads.spec import TaskTypeSpec, WorkloadInfo
from repro.workloads.drug_screening import build_drug_screening_workflow
from repro.workloads.montage import build_montage_workflow
from repro.workloads.synthetic import (
    build_hot_dataset_workload,
    build_random_dag,
    build_stress_workload,
)

__all__ = [
    "TaskTypeSpec",
    "WorkloadInfo",
    "build_drug_screening_workflow",
    "build_hot_dataset_workload",
    "build_montage_workflow",
    "build_random_dag",
    "build_stress_workload",
]
