"""The layered DAG workload, declared through the authoring API.

Every node is a plain success-edge :class:`~repro.authoring.api.Job` of the
shared ``layer_task`` type, wired to two jobs of the previous layer.  Plain
success-edge jobs materialize eagerly at start, in declaration order, with
their parents' futures as arguments, so the run submits the whole DAG up
front and installs no growth hook.  It is registered as ``layered``
(:mod:`repro.authoring.zoo`), the only generator of that kind.
"""

from __future__ import annotations

from repro.authoring.api import job, workflow

__all__ = ["LAYERED_AUTHORED"]


def _layer_node(*args, **kwargs):  # pragma: no cover - never runs in simulation
    return None


@workflow(name="layered")
def _layered(
    task_count: int = 200,
    layer_width: int = 25,
    duration_s: float = 4.0,
    output_mb: float = 5.0,
):
    """Wide enough to keep every endpoint busy, deep enough that crashes hit
    tasks with successors: each task depends on two tasks of the previous
    layer."""
    previous = []
    count = 0
    while count < task_count:
        layer_size = min(layer_width, task_count - count)
        layer = []
        for i in range(layer_size):
            node = job(
                _layer_node,
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


LAYERED_AUTHORED = _layered
