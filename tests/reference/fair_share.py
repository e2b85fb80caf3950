"""Fair-share apportionment as it shipped in comprehension form.

``largest_remainder_split`` and ``ReferenceFairShareArbitration.allocate``
are the product's ``repro.core.rounding.largest_remainder_split`` and
``repro.serving.arbitration.FairShareArbitration.allocate`` as they were
written before the loop-form rewrite, kept verbatim: dict comprehensions, a
sort key per call, a generator for the cap sum.  The product computes the
same thing with plain loops (Python 3.11 creates a frame per comprehension
and lambda call); ``tests/serving/test_fair_share_reference.py`` holds it to
this module with ``==`` on every allocation, on ``_served`` and on
``state_version``.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.serving.arbitration import Allocation, ArbitrationPolicy

__all__ = ["ReferenceFairShareArbitration", "largest_remainder_split"]


def largest_remainder_split(
    total: int,
    weights: Mapping[str, float],
    caps: Optional[Mapping[str, int]] = None,
    tiebreak: Optional[Mapping[str, float]] = None,
) -> Dict[str, int]:
    """Split ``total`` units proportionally to ``weights``, deterministically.

    Integer apportionment by the largest-remainder (Hamilton) method: each
    key gets the floor of its exact proportional quota, and the leftover
    units go to the largest fractional remainders.  Ties — and therefore the
    whole allocation — resolve deterministically: by ``tiebreak`` value
    (ascending) when given, then by key.  ``caps`` bounds each key's
    allocation; capped leftovers spill to the remaining keys.  Keys with
    non-positive weight (or cap) always get zero.  Used by the elastic
    scaler's shortfall split, the serving layer's fair-share arbitration and
    the placement optimizer's worker-target apportionment.
    """
    out = {key: 0 for key in weights}
    eligible = {
        key: w
        for key, w in weights.items()
        if w > 0 and (caps is None or caps.get(key, 0) > 0)
    }
    if total <= 0 or not eligible:
        return out
    if caps is not None:
        total = min(total, sum(caps[key] for key in eligible))
    weight_sum = sum(eligible.values())
    quotas = {key: total * w / weight_sum for key, w in eligible.items()}
    for key in eligible:
        floor = int(quotas[key])
        out[key] = floor if caps is None else min(floor, caps[key])
    leftover = total - sum(out.values())
    order = sorted(
        eligible,
        key=lambda key: (
            -(quotas[key] - int(quotas[key])),
            tiebreak.get(key, 0.0) if tiebreak is not None else 0.0,
            key,
        ),
    )
    while leftover > 0 and order:
        for key in list(order):
            if leftover <= 0:
                break
            if caps is not None and out[key] >= caps[key]:
                order.remove(key)
                continue
            out[key] += 1
            leftover -= 1
    return out


class ReferenceFairShareArbitration(ArbitrationPolicy):
    """``FairShareArbitration`` with the comprehension-form ``allocate``."""

    name = "fair_share"

    def __init__(self) -> None:
        self._served: Dict[str, int] = {}

    def allocate(self, free, demands, tenants, *, record_service: bool = True) -> Allocation:
        weights = {t.workflow_id: max(t.weight, 1e-9) for t in tenants}
        allocation: Allocation = {t.workflow_id: {} for t in tenants}
        for endpoint in sorted(free):
            remaining = max(0, free[endpoint])
            unmet = {
                t.workflow_id: demands.get(t.workflow_id, {}).get(endpoint, 0)
                for t in tenants
            }
            while remaining > 0 and any(unmet.values()):
                active = {wid: w for wid, w in weights.items() if unmet[wid] > 0}
                deficit = {
                    wid: self._served.get(wid, 0) / weights[wid] for wid in active
                }
                shares = largest_remainder_split(
                    remaining, active, caps=unmet, tiebreak=deficit
                )
                granted_any = False
                for wid in sorted(active):
                    granted = min(shares.get(wid, 0), unmet[wid])
                    if granted <= 0:
                        continue
                    allocation[wid][endpoint] = allocation[wid].get(endpoint, 0) + granted
                    if record_service:
                        self._served[wid] = self._served.get(wid, 0) + granted
                        self.state_version += 1
                    unmet[wid] -= granted
                    remaining -= granted
                    granted_any = True
                if not granted_any:
                    break
        return allocation

