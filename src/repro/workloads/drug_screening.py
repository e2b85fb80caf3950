"""Drug-screening workflow generator (Fig. 8 left, §VI).

The paper's drug-screening case study (derived from the IMPECCABLE /
SARS-CoV-2 lead-generation campaign) screens batches of candidate molecules
through a pipeline of docking, feature computation, fingerprinting, ML
scoring, filtering and simulation stages.  At full scale the workflow has
24 001 functions, 1 447 hours of total computation (≈220 s per task on
average) and touches 480.64 GB of data.

The generator reproduces those aggregate characteristics with a
batch-structured DAG:

* one ``prepare_receptor`` root task (type A),
* per molecule batch: ``dock`` (B) fans into ``compute_features`` (C) and
  ``compute_fingerprint`` (D), both feed ``ml_score`` (E), which feeds
  ``filter_hits`` (F), and promising hits run a ``simulate_complex`` (G)
  task — six tasks per batch, matching 1 + 6·4000 = 24 001 at scale 1.0.

Use ``scale`` to shrink the workflow proportionally (benchmarks default to a
few per cent so the whole suite stays fast); shapes and per-task costs are
unchanged.
"""

from __future__ import annotations

from repro.core.client import UniFaaSClient
from repro.data.remote_file import GlobusFile
from repro.workloads.spec import TaskTypeSpec, WorkloadInfo, make_task_type

__all__ = ["DRUG_SCREENING_TYPES", "build_drug_screening_workflow", "FULL_SCALE_BATCHES"]

#: Number of molecule batches at scale 1.0 (1 + 6 * 4000 = 24 001 tasks).
FULL_SCALE_BATCHES = 4000

#: Size of the external molecule library file every docking batch reads (MB);
#: it starts on the first configured executor.
_MOLECULE_LIBRARY_MB = 4096.0

#: Task types with durations chosen so the full-scale workflow averages
#: ≈220 s per task (paper: 1 447 h / 24 001 tasks) and data volumes summing
#: to ≈480 GB.
DRUG_SCREENING_TYPES = {
    "prepare_receptor": TaskTypeSpec(name="prepare_receptor", duration_s=120.0, output_mb=256.0),
    "dock": TaskTypeSpec(name="dock", duration_s=300.0, output_mb=30.0),
    "compute_features": TaskTypeSpec(name="compute_features", duration_s=150.0, output_mb=20.0),
    "compute_fingerprint": TaskTypeSpec(name="compute_fingerprint", duration_s=100.0, output_mb=10.0),
    "ml_score": TaskTypeSpec(name="ml_score", duration_s=250.0, output_mb=15.0),
    "filter_hits": TaskTypeSpec(name="filter_hits", duration_s=60.0, output_mb=5.0),
    "simulate_complex": TaskTypeSpec(name="simulate_complex", duration_s=460.0, output_mb=43.0),
}


def build_drug_screening_workflow(
    client: UniFaaSClient,
    *,
    scale: float = 1.0,
    jitter: float = 0.0,
) -> WorkloadInfo:
    """Compose the drug-screening DAG through ``client``: ``scale`` of the
    paper's 4 000 molecule batches, at least one."""
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    batches = max(1, int(round(FULL_SCALE_BATCHES * scale)))

    types = DRUG_SCREENING_TYPES
    fns = {name: make_task_type(spec, jitter) for name, spec in types.items()}
    info = WorkloadInfo(name="drug_screening", scale=scale)

    location = client.config.executors[0].endpoint
    library = GlobusFile("molecule_library.smi", size_mb=_MOLECULE_LIBRARY_MB, location=location)

    with client:
        receptor = fns["prepare_receptor"](library)
        info.register(receptor, "prepare_receptor")
        for _ in range(batches):
            docked = fns["dock"](receptor)
            info.register(docked, "dock")

            features = fns["compute_features"](docked)
            info.register(features, "compute_features")
            fingerprint = fns["compute_fingerprint"](docked)
            info.register(fingerprint, "compute_fingerprint")

            score = fns["ml_score"](features, fingerprint)
            info.register(score, "ml_score")

            hits = fns["filter_hits"](score)
            info.register(hits, "filter_hits")

            simulation = fns["simulate_complex"](hits)
            info.register(simulation, "simulate_complex")
    return info
