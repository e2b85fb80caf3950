"""Table III — scheduler overhead per task.

The paper measures the time the scheduler itself spends per task (including
predicting task characteristics where needed) while scheduling the
drug-screening workflow on the submission workstation: Capacity needs
~1.7×10⁻⁴ s, Locality ~3.0×10⁻³ s and DHA ~3.5×10⁻³ s per task.

This experiment runs a scaled drug-screening workflow under each algorithm
and reports the measured wall-clock scheduling time divided by the number of
scheduling decisions — real overhead of this reproduction's scheduler code,
not simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.case_studies import PAPER_SCHEDULERS
from repro.scenarios.presets import paper_spec
from repro.scenarios.spec import run_scenario

__all__ = ["OverheadResult", "run_overhead_experiment"]


@dataclass
class OverheadResult:
    """Per-algorithm scheduler overhead."""

    overhead_per_task_s: Dict[str, float]
    task_count: int

    def rows(self) -> List[tuple]:
        return sorted(self.overhead_per_task_s.items())

    def ordering_matches_paper(self) -> bool:
        """DHA (prediction + prioritisation) should be the most expensive (Table III)."""
        o = self.overhead_per_task_s
        return o["DHA"] >= o["CAPACITY"] and o["DHA"] >= o["LOCALITY"]


def run_overhead_experiment(*, scale: float = 0.02, seed: int = 0) -> OverheadResult:
    """Measure the per-task scheduling overhead of each algorithm."""
    overheads: Dict[str, float] = {}
    task_count = 0
    for scheduler in PAPER_SCHEDULERS:
        spec = paper_spec("drug_screening", "static", scheduler, scale=scale, seed=seed)
        result = run_scenario(spec)
        overheads[scheduler] = result.metrics.scheduler_overhead_per_task_s()
        task_count = result.total_tasks
    return OverheadResult(overhead_per_task_s=overheads, task_count=task_count)
