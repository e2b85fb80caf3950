"""Serialize a :class:`~repro.scenarios.spec.ScenarioSpec` into a snapshot.

The spec is the replay recipe: restore re-executes it deterministically from
t=0, so the snapshot must carry the *complete* scenario — workload, topology,
scheduler, dynamics (including orchestrator-crash entries) and every engine
toggle.  All scenario dataclasses are frozen compositions of JSON-safe
scalars, so serialization is a faithful field walk; the one thing that
cannot ride along is an *inline* authored workflow definition (a live object
graph of closures) — those runs must register the workflow under a name
first, and snapshotting them raises a typed
:class:`~repro.durability.errors.SnapshotError`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.durability.errors import SnapshotCorruptError, SnapshotError
from repro.scenarios.dynamics import (
    ChurnProcess,
    CrashRejoinCycle,
    DynamicsSpec,
    OrchestratorCrash,
    TimelineEvent,
)
from repro.scenarios.spec import EndpointSpec, ScenarioSpec, WorkloadSpec
from repro.streaming.spec import StreamingSpec

__all__ = ["spec_from_payload", "spec_to_payload"]


def _flat(obj) -> Dict[str, object]:
    """Shallow dataclass-to-dict (no recursion — nested specs are explicit)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def spec_to_payload(spec: ScenarioSpec) -> Dict[str, object]:
    """The JSON-safe replay recipe of ``spec``."""
    if spec.workload.definition is not None:
        raise SnapshotError(
            "inline workflow definitions cannot be snapshotted; register the "
            "workflow under a name (authoring registry) and reference it by kind"
        )
    workload = _flat(spec.workload)
    workload.pop("definition")
    dynamics = {
        "scripted": [_flat(e) for e in spec.dynamics.scripted],
        "churn": _flat(spec.dynamics.churn) if spec.dynamics.churn else None,
        "crashes": _flat(spec.dynamics.crashes) if spec.dynamics.crashes else None,
        "orchestrator": [_flat(c) for c in spec.dynamics.orchestrator],
        "target_endpoints": list(spec.dynamics.target_endpoints),
        "horizon_s": spec.dynamics.horizon_s,
    }
    payload = _flat(spec)
    payload["workload"] = workload
    payload["topology"] = [_flat(e) for e in spec.topology]
    payload["dynamics"] = dynamics
    payload["tenant_weights"] = list(spec.tenant_weights)
    if spec.streaming is not None:
        streaming = _flat(spec.streaming)
        streaming["scripted_arrivals"] = list(spec.streaming.scripted_arrivals)
        streaming["slo_choices"] = list(spec.streaming.slo_choices)
        payload["streaming"] = streaming
    else:
        payload["streaming"] = None
    return payload


def spec_from_payload(payload: Dict[str, object]) -> ScenarioSpec:
    """Rebuild the spec a snapshot was taken from."""
    try:
        data = dict(payload)
        workload = WorkloadSpec(**{**data.pop("workload")})
        topology = tuple(EndpointSpec(**e) for e in data.pop("topology"))
        dyn: Dict[str, object] = dict(data.pop("dynamics"))
        dynamics = DynamicsSpec(
            scripted=tuple(TimelineEvent(**e) for e in dyn["scripted"]),
            churn=ChurnProcess(**dyn["churn"]) if dyn["churn"] else None,
            crashes=CrashRejoinCycle(**dyn["crashes"]) if dyn["crashes"] else None,
            orchestrator=tuple(
                OrchestratorCrash(**c) for c in dyn.get("orchestrator", [])
            ),
            target_endpoints=tuple(dyn["target_endpoints"]),
            horizon_s=float(dyn["horizon_s"]),
        )
        data["tenant_weights"] = tuple(data.get("tenant_weights", ()))
        streaming = data.pop("streaming", None)
        if streaming is not None:
            streaming = dict(streaming)
            streaming["scripted_arrivals"] = tuple(streaming["scripted_arrivals"])
            streaming["slo_choices"] = tuple(streaming["slo_choices"])
            streaming = StreamingSpec(**streaming)
        data["streaming"] = streaming
        return ScenarioSpec(
            workload=workload, topology=topology, dynamics=dynamics, **data
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptError(
            f"snapshot carries an unreadable scenario spec: {exc}"
        ) from exc


def describe_mismatch(spec: ScenarioSpec, payload: Dict[str, object]) -> List[str]:
    """Field-level differences between ``spec`` and a snapshot's recipe."""
    mine = spec_to_payload(spec)
    diffs = []
    for key in sorted(set(mine) | set(payload)):
        if mine.get(key) != payload.get(key):
            diffs.append(key)
    return diffs
