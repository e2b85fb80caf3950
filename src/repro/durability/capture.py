"""Capture and verify the live state sections of a running scenario.

Capture walks every layer of the serving state into a JSON-native dict:
the simulation kernel (clock + event counters), the named RNG streams, each
live tenant's engine (task graph, columnar ``TaskStore`` columns, bus count,
claims per endpoint), the dataplane (replica catalog, storage usage, in-flight
transfer jobs and staging tickets), the serving layer's arbitration state,
the open-loop stream's arrival/admission state and the placement plan.
Large per-task detail is folded into SHA-256 digests so a checkpoint of a
20k-task run stays small while still pinning every byte of state.

All capture functions are **read-only**: the snapshot-point kernel event
runs them mid-simulation in both the capture run and the restore run, so
they must not perturb the event sequence (that is what keeps the two runs'
logs byte-identical).

Verify is strict recursive equality with path-reporting; any divergence at
the cut raises :class:`~repro.durability.errors.SnapshotStateMismatch`.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import Dict, List, Optional

import numpy as np

from repro.durability.errors import SnapshotStateMismatch

__all__ = ["capture_sections", "verify_sections"]

#: Above this many tasks, per-task rows are digest-only (the digest still
#: covers every row byte-for-byte; the rows are omitted to bound file size).
_INLINE_TASK_LIMIT = 4096


def _r(value: float) -> float:
    return round(float(value), 9)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture_sections(env, manager, streaming=None) -> Dict[str, object]:
    """The full verification manifest of a live run (JSON-native).

    Every live engine of ``manager``'s federation is captured under its
    namespace (its workflow id); ``streaming`` is the open-loop stream the
    tenants arrive through, if any.
    """
    federation = manager.federation
    kernel = env.kernel
    endpoints = sorted(env.fabric.endpoint_names())
    sections: Dict[str, object] = {
        "kernel": {
            "now": _r(kernel.clock.now),
            "events_processed": kernel.events_processed,
            "pending_events": kernel.pending_events,
            "pending_total": kernel.pending_events_total,
        },
        "rng": env.rng.get_state(),
        "workflows": {
            engine.namespace: _capture_engine(engine, endpoints)
            for engine in sorted(federation.engines, key=attrgetter("namespace"))
        },
        "dataplane": _capture_data_manager(federation.data_manager),
    }
    if manager.policy is not None:
        # Arbitration state exists only where workflows are arbitrated (the
        # single-workflow client's lone tenant is not).
        sections["serving"] = _capture_serving(manager)
    if streaming is not None:
        sections["streaming"] = _capture_streaming(streaming)
    if federation.plan_service is not None:
        # Plan state plus the dedicated "placement" RNG stream: the replay
        # proof requires the restored run's solves to continue bit-identically.
        sections["placement"] = federation.plan_service.capture_state()
    return sections


# ------------------------------------------------------------------ engines
def _capture_engine(engine, endpoints: List[str]) -> Dict[str, object]:
    graph = engine.graph
    rows: List[List[object]] = []
    for task_id in sorted(t.task_id for t in graph):
        task = graph.get(task_id)
        rows.append(
            [
                task.task_id,
                task.state.name,
                int(task.attempts),
                task.assigned_endpoint or "",
            ]
        )
    graph_digest = _sha(repr(rows))
    section: Dict[str, object] = {
        "tasks": len(rows),
        "graph_sha256": graph_digest,
        "columns_sha256": _columns_digest(graph.store),
        "bus_published": engine.bus.published_count,
        "scheduler": {
            "type": type(engine.scheduler).__name__,
            "claims": {name: graph.store.pending_on(name) for name in endpoints},
        },
    }
    if len(rows) <= _INLINE_TASK_LIMIT:
        section["rows"] = rows
    return section


def _columns_digest(store) -> str:
    """One digest over every live row of every TaskStore column."""
    size = len(store)
    digest = hashlib.sha256()
    for name in ("state", "cores", "input_mb", "priority", "endpoint"):
        column = getattr(store, name)
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column[:size]).tobytes())
    for name in sorted(store.timestamps):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(store.timestamps[name][:size]).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------- dataplane
def _capture_data_manager(dm) -> Dict[str, object]:
    store = dm.store
    replicas: List[List[object]] = []
    for endpoint in sorted(store.endpoints()):
        for file_id in sorted(store._replicas.get(endpoint, {})):
            replica = store._replicas[endpoint][file_id]
            replicas.append(
                [
                    endpoint,
                    file_id,
                    _r(replica.size_mb),
                    sorted(replica.pinned_by),
                    bool(replica.prefetched),
                    bool(replica.used),
                    int(replica.last_touch),
                ]
            )
    jobs = [
        [
            job.request.file.file_id,
            job.request.src,
            job.request.dst,
            int(job.klass),
            _r(job.priority),
            int(job.seq),
            bool(job.started),
            len(job.tickets),
        ]
        for job in dm.transfers.active_jobs()
    ]
    return {
        "replicas": len(replicas),
        "replicas_sha256": _sha(repr(replicas)),
        "usage_mb": {
            endpoint: _r(store.usage_mb(endpoint))
            for endpoint in sorted(store.endpoints())
        },
        "offline": sorted(store.offline),
        "transfer_jobs": len(jobs),
        "transfer_jobs_sha256": _sha(repr(jobs)),
        "tickets": {
            # In-flight staging tickets only: one authoritative ticket per
            # task, dropped from the manifest once its staging completed.
            task: ticket.destination
            for task, ticket in sorted(dm._tickets_by_task.items())
            if ticket.completed_at is None
        },
        "stats": dm.stats_dict(),
    }


# ------------------------------------------------------------------ serving
def _capture_serving(manager) -> Dict[str, object]:
    section: Dict[str, object] = {
        "policy": manager.policy.name,
        "workflows": {
            handle.workflow_id: {
                "started": bool(handle.started),
                "finished": bool(handle.finished),
                "paused": bool(getattr(handle, "paused", False)),
            }
            for handle in manager.workflows()
        },
        "last_scaling_check": _r(manager.federation.last_scaling_check),
    }
    served = getattr(manager.policy, "_served", None)
    if served is not None:
        section["served"] = {wid: int(v) for wid, v in sorted(served.items())}
    return section


# ---------------------------------------------------------------- streaming
def _capture_streaming(service) -> Dict[str, object]:
    """The open-loop stream's live state at the cut.

    Pins the arrival process position (so the ``arrivals`` RNG stream state
    and the next scheduled arrival agree), the admission queue contents, and
    every steady-state counter — a replay that diverges anywhere in the
    admit/reject/abandon/retire sequence fails verification here.
    """
    arrivals = service.arrivals
    admission = service.admission
    metrics = service.metrics
    return {
        "arrivals": {
            "emitted": int(arrivals.emitted),
            "total_emitted": int(arrivals.total_emitted),
            "next_arrival_s": _r(arrivals.next_arrival_s)
            if arrivals.next_arrival_s is not None
            else None,
            "pending_scripted": int(arrivals._pending_scripted),
        },
        "admission": {
            "pending": [
                [a.workflow_id, _r(a.arrival_s), _r(a.slo_s), bool(a.scripted)]
                for a in admission.pending
            ],
            "submitted": int(admission.submitted),
            "admitted": int(admission.admitted),
            "rejected": int(admission.rejected),
            "abandoned": int(admission.abandoned),
            "queue_depth_peak": int(admission.queue_depth_peak),
        },
        "active": int(service.active),
        "active_peak": int(service.active_peak),
        "retired": int(service.manager.retired_count),
        "metrics": {
            "completed": int(metrics.completed),
            "deadline_misses": int(metrics.deadline_misses),
            "queue_wait_mean_s": _r(metrics.queue_wait.mean()),
            "response_mean_s": _r(metrics.response.mean()),
        },
    }


# ------------------------------------------------------------------- verify
def verify_sections(
    expected: Dict[str, object], actual: Dict[str, object], context: str
) -> None:
    """Raise :class:`SnapshotStateMismatch` unless ``actual == expected``."""
    diffs: List[str] = []
    _diff("", expected, actual, diffs)
    if diffs:
        shown = "; ".join(diffs[:8])
        more = f" (+{len(diffs) - 8} more)" if len(diffs) > 8 else ""
        raise SnapshotStateMismatch(
            f"{context}: replayed state diverged from the snapshot at {shown}{more}"
        )


def _diff(path: str, expected, actual, out: List[str], limit: int = 64) -> None:
    if len(out) >= limit:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected:
                out.append(f"{sub} (unexpected)")
            elif key not in actual:
                out.append(f"{sub} (missing)")
            else:
                _diff(sub, expected[key], actual[key], out, limit)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path} (length {len(actual)} != {len(expected)})")
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            _diff(f"{path}[{index}]", e, a, out, limit)
        return
    if _normalize(expected) != _normalize(actual):
        out.append(f"{path} ({actual!r} != {expected!r})")


def _normalize(value):
    # The expected side round-trips through JSON (ints/floats unify, tuples
    # become lists); mirror that on the live side before comparing.
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, tuple):
        return [_normalize(v) for v in value]
    return value


def make_cut(
    kind: str,
    index: int,
    time_s: float,
    events_processed: int,
    log_counts: Dict[str, int],
    log_prefixes: Dict[str, str],
) -> Dict[str, object]:
    """The cut descriptor embedded in a snapshot."""
    return {
        "kind": kind,
        "index": int(index),
        "time_s": _r(time_s),
        "events_processed": int(events_processed),
        "log_counts": dict(log_counts),
        "log_prefix_sha256": dict(log_prefixes),
    }


def recorder_prefix_digest(entries: List, count: Optional[int] = None) -> str:
    """Digest of an event log's first ``count`` entries (all when ``None``)."""
    view = entries if count is None else entries[:count]
    return _sha(repr(view))
