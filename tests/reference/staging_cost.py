"""The staging-cost rules as they were written before there was one of them.

Before ``DataPlane.staging_sources`` and ``SchedulingContext``'s
``file_staging_costs`` / ``estimated_staging_costs``, the predicted time to
stage a task's inputs was written out by each consumer, each reading the
data-plane policy from ``config.enable_dataplane``:

* three per-file rules — the scalar :func:`predicted_staging_time`'s file
  loop, the vector index's :func:`file_cost_row` and the placement
  service's :func:`pull_cost`;
* two fallbacks for a task whose input files do not exist yet — the tail of
  :func:`predicted_staging_time` and of :func:`staging_row`;
* and the multi-source candidate set, :func:`staging_sources`.

They are kept here verbatim, as functions of the context (``self`` became
``context``; the index's per-file cache is left out, and :func:`staging_row`
takes the index's endpoint list as ``names``).
``tests/sched/test_staging_cost_reference.py`` holds the product's methods
to them bit for bit.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = [
    "file_cost_row",
    "predicted_staging_time",
    "pull_cost",
    "staging_row",
    "staging_sources",
]


def staging_sources(context, file) -> List[str]:
    """Candidate source replicas for a multi-source staging prediction.

    Mirrors ``DataPlane._pick_source``'s candidate set: replicas at
    online endpoints, falling back to the full (quarantined) set only
    when no online replica is left.  Keeping predictions on the same
    candidates as the transfer scheduler stops placements from being
    costed against a fast replica sitting on a crashed endpoint.
    """
    sources = sorted(file.locations)
    if not sources:
        return sources
    store = context.data_manager.store
    online = [s for s in sources if not store.is_offline(s)]
    return online or sources


def predicted_staging_time(context, task, endpoint: str) -> float:
    """``SchedulingContext.predicted_staging_time``."""
    multi_source = context.config.enable_dataplane
    total = 0.0
    for file in task.input_files:
        if file.available_at(endpoint) or file.size_mb <= 0:
            continue
        if multi_source:
            sources = staging_sources(context, file)
            if not sources:
                continue
            total += min(
                context.transfer_profiler.predict_transfer_time(src, endpoint, file.size_mb)
                for src in sources
            )
            continue
        source = file.primary_location
        if source is None:
            continue
        total += context.transfer_profiler.predict_transfer_time(
            source, endpoint, file.size_mb
        )
    if not task.input_files:
        # Inputs not produced yet: approximate with the estimated volume
        # moved from an arbitrary peer (average bandwidth).
        size = context.estimated_input_mb(task)
        if size > 0:
            names = [n for n in context.endpoint_names() if n != endpoint]
            if names:
                total = context.transfer_profiler.predict_transfer_time(names[0], endpoint, size)
    return total


def staging_row(context, names: List[str], task) -> np.ndarray:
    """``PredictionIndex._staging_row``."""
    row = np.zeros(len(names))
    files = task.input_files
    if files:
        for file in files:
            row += file_cost_row(context, names, file)
        return row
    size = context.estimated_input_mb(task)
    if size > 0 and len(names) > 1:
        predict = context.transfer_profiler.predict_transfer_time
        for column, name in enumerate(names):
            source = names[0] if names[0] != name else names[1]
            row[column] = predict(source, name, size)
    return row


def file_cost_row(context, names: List[str], file) -> np.ndarray:
    """``PredictionIndex._file_cost_row``."""
    cost = np.zeros(len(names))
    size = file.size_mb
    if size > 0:
        predict = context.transfer_profiler.predict_transfer_time
        locations = file.locations
        if context.config.enable_dataplane:
            sources = staging_sources(context, file)
        else:
            primary = file.primary_location
            sources = [] if primary is None else [primary]
        if sources:
            for column, name in enumerate(names):
                if name in locations:
                    continue
                best = None
                for source in sources:
                    seconds = predict(source, name, size)
                    if best is None or seconds < best:
                        best = seconds
                cost[column] = best
    return cost


def pull_cost(ctx, file, endpoint: str) -> float:
    """``PlacementService._pull_cost``."""
    if file.available_at(endpoint) or file.size_mb <= 0:
        return 0.0
    profiler = ctx.transfer_profiler
    if ctx.config.enable_dataplane:
        sources = staging_sources(ctx, file)
        if not sources:
            return 0.0
        return float(
            min(
                profiler.predict_transfer_time(src, endpoint, file.size_mb)
                for src in sources
            )
        )
    source = file.primary_location
    if source is None:
        return 0.0
    return float(profiler.predict_transfer_time(source, endpoint, file.size_mb))
