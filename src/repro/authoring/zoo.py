"""The scenario zoo: the authored workflows a scenario can name.

This module only declares definitions.  The workload table
(:mod:`repro.authoring.registry`) lists each one under its name, so
scenarios address it straight from ``WorkloadSpec(kind=...)`` and
``python -m repro run-scenario``:

- ``zoo-conditional`` — postcondition-driven branching: one branch's
  ``ensure`` holds (its success path runs, the fallback is skipped), the
  other's is violated (its recovery branch materializes instead).
- ``zoo-convergence`` — an iterate-until-metric loop with a bounded trip
  count, plus a failure edge that would catch divergence.
- ``zoo-array`` — a 10k+-wide array fan-out that expands lazily in batches
  and reduces at the end.
- ``zoo-mixed`` — all of the above in one workflow, plus a poisoned job
  (``failure_rate=1.0, retries=0``) whose §IV-G ladder exhausts on every
  endpoint so its ``status="failure"`` recovery edge genuinely fires; the
  preset runs several tenants of it under the churn timeline.
- ``layered`` — the layered DAG of plain success edges: every job eager,
  nothing deferred, so the run submits the whole DAG up front with the
  engine calls a static generator makes.

All predicates are closed-form and deterministic: the zoo is part of the
byte-determinism CI matrix.
"""

from __future__ import annotations

from repro.authoring.api import after, ensure, job, workflow

__all__ = ["LAYERED", "ZOO_ARRAY", "ZOO_CONDITIONAL", "ZOO_CONVERGENCE", "ZOO_MIXED"]

#: The trip on which zoo-convergence's loop meets its metric.
_CONVERGE_TRIP = 3


def _noop(*args, **kwargs):  # pragma: no cover - never runs in simulation
    return None


@workflow(name="zoo-conditional")
def ZOO_CONDITIONAL(duration_s: float = 4.0, output_mb: float = 5.0):
    @job(duration_s=duration_s, output_mb=output_mb)
    def calibrate():
        return _noop()

    # Postcondition holds: the publish path runs, the refine fallback is
    # skipped (its failure edge can never fire).
    @ensure(lambda i: True)
    @after(calibrate)
    @job(duration_s=duration_s, output_mb=output_mb)
    def screen_fast():
        return _noop()

    @after(screen_fast)
    @job(duration_s=duration_s / 2, output_mb=output_mb / 2)
    def publish_fast():
        return _noop()

    @after(screen_fast, status="failure")
    @job(duration_s=duration_s)
    def refine_fast():
        return _noop()

    # Postcondition violated: the engine task completes but the job's
    # authoring-level outcome is failure — the recovery branch materializes,
    # the would-be success path never does.
    @ensure(lambda i: False)
    @after(calibrate)
    @job(duration_s=duration_s, output_mb=output_mb)
    def screen_deep():
        return _noop()

    @after(screen_deep)
    @job(duration_s=duration_s)
    def publish_deep():
        return _noop()

    @after(screen_deep, status="failure")
    @job(duration_s=duration_s, output_mb=output_mb)
    def rescreen():
        return _noop()

    @after(rescreen)
    @job(duration_s=duration_s / 2, output_mb=output_mb / 2)
    def publish_rescreened():
        return _noop()


@workflow(name="zoo-convergence")
def ZOO_CONVERGENCE(
    duration_s: float = 4.0,
    output_mb: float = 5.0,
    max_trips: int = 6,
):
    @job(duration_s=duration_s, output_mb=output_mb)
    def seed_state():
        return _noop()

    # Iterate-until-metric with a bounded trip count: each trip is a fresh
    # engine task chained on the previous trip's future.
    @after(seed_state)
    @job(
        duration_s=duration_s,
        output_mb=output_mb,
        max_trips=max_trips,
        until=lambda trip: trip >= _CONVERGE_TRIP,
    )
    def refine():
        return _noop()

    @after(refine)
    @job(duration_s=duration_s / 2, output_mb=output_mb / 2)
    def summarize():
        return _noop()

    # Catches trip-budget exhaustion; skipped when the loop converges.
    @after(refine, status="failure")
    @job(duration_s=duration_s / 4)
    def diverged():
        return _noop()


@workflow(name="zoo-array")
def ZOO_ARRAY(width: int = 10000, duration_s: float = 0.05, output_mb: float = 2.0):
    @job(duration_s=1.0, output_mb=output_mb)
    def split():
        return _noop()

    # Parametric fan-out: expands lazily in ARRAY_BATCH slices, so the
    # 10k-wide stage flows through the columnar store in bounded windows.
    @after(split)
    @job(duration_s=duration_s, array=width)
    def shard():
        return _noop()

    @after(shard)
    @job(duration_s=1.0, output_mb=output_mb)
    def reduce_all():
        return _noop()


@workflow(name="zoo-mixed")
def ZOO_MIXED(width: int = 10000, duration_s: float = 0.05):
    @job(duration_s=1.0, output_mb=2.0)
    def ingest():
        return _noop()

    # Conditional branch whose postcondition is violated.
    @ensure(lambda i: False)
    @after(ingest)
    @job(duration_s=1.5, output_mb=1.0)
    def validate():
        return _noop()

    @after(validate)
    @job(duration_s=1.0)
    def fast_path():
        return _noop()

    @after(validate, status="failure")
    @job(duration_s=1.0, output_mb=1.0)
    def sanitize():
        return _noop()

    # Poisoned export: every attempt fails, retries=0 walks straight down
    # the §IV-G reassignment rungs until every endpoint has failed it —
    # a genuine terminal TaskFailed triggering the recovery edge.
    @after(ingest)
    @job(duration_s=0.5, output_mb=0.5, retries=0, failure_rate=1.0)
    def flaky_export():
        return _noop()

    @after(flaky_export, status="failure")
    @job(duration_s=1.0, output_mb=0.5)
    def export_fallback():
        return _noop()

    # Convergence loop over the sanitized data.
    @after(sanitize)
    @job(
        duration_s=1.0,
        output_mb=1.0,
        max_trips=5,
        until=lambda trip: trip >= 3,
    )
    def calibrate():
        return _noop()

    # The ≥10k-task array fan-out.
    @after(calibrate)
    @job(duration_s=duration_s, array=width)
    def simulate():
        return _noop()

    @after(simulate)
    @job(duration_s=1.0, output_mb=1.0)
    def reduce_results():
        return _noop()

    @after(reduce_results, export_fallback)
    @job(duration_s=0.5)
    def publish():
        return _noop()


@workflow(name="layered")
def LAYERED(
    task_count: int = 200,
    layer_width: int = 25,
    duration_s: float = 4.0,
    output_mb: float = 5.0,
):
    """Wide enough to keep every endpoint busy, deep enough that crashes hit
    tasks with successors: each task depends on two tasks of the previous
    layer.  Every node is a plain success-edge job of the shared
    ``layer_task`` type, so the run installs no growth hook."""
    previous = []
    count = 0
    while count < task_count:
        layer_size = min(layer_width, task_count - count)
        layer = []
        for i in range(layer_size):
            node = job(
                _noop,
                name=f"layer_task_{count:05d}",
                function_name="layer_task",
                duration_s=duration_s,
                output_mb=output_mb,
            )
            if previous:
                node.after(
                    previous[i % len(previous)], previous[(i + 1) % len(previous)]
                )
            layer.append(node)
            count += 1
        previous = layer
