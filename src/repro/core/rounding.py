"""Deterministic integer apportionment shared across subsystems.

The same fractional-to-integer rounding problem shows up wherever a whole
number of workers must be split proportionally between competing claimants:
the elastic scaler divides a scale-out shortfall between endpoints by
headroom, the serving layer's fair-share arbitration divides free capacity
between tenants by weight, and the placement optimizer divides plan worker
targets.  All of them must round the *same way* — byte-determinism of the
scenario artifacts depends on every call site resolving ties identically —
so the algorithm lives here, once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Mapping, Optional

__all__ = ["largest_remainder_split"]


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
    # Loop form, no comprehension or sort-key lambda: this runs several times
    # per fair-share round, and Python 3.11 gives each of those a frame.
    out = dict.fromkeys(weights, 0)
    eligible = {}
    for key, w in weights.items():
        if w > 0 and (caps is None or caps.get(key, 0) > 0):
            eligible[key] = w
    if total <= 0 or not eligible:
        return out
    if caps is not None:
        total = min(total, sum(map(caps.__getitem__, eligible)))
    weight_sum = sum(eligible.values())
    ranked = []
    for key, w in eligible.items():
        quota = total * w / weight_sum
        floor = int(quota)
        out[key] = floor if caps is None else min(floor, caps[key])
        ranked.append(
            (-(quota - floor), 0.0 if tiebreak is None else tiebreak.get(key, 0.0), key)
        )
    leftover = total - sum(out.values())
    ranked.sort()
    order = list(map(itemgetter(2), ranked))
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
