"""The spec's replay payload is complete by construction.

``ScenarioSpec.to_payload()`` is the replay recipe a durability snapshot
embeds and a restore compares.  Every leaf field of every nested spec must
reach it: a field left out would let a restore replay a different scenario
without noticing.  The tests change one leaf at a time, anywhere in the
nested spec, and require the payload to move and the restore to be refused.
"""

import dataclasses
import json
import typing

import pytest

from repro.durability import Snapshot, SnapshotError, load_restore_snapshot, write_snapshot
from repro.scenarios.dynamics import ACTIONS
from repro.scenarios.presets import SCENARIOS, get_scenario
from repro.scenarios.spec import ScenarioSpec


def _sample(hint):
    """A value of type ``hint``, for a field that is ``None`` or an empty tuple."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        element = typing.get_args(hint)[0]
        return None if dataclasses.is_dataclass(element) else (_sample(element),)
    if dataclasses.is_dataclass(hint):
        return hint()
    if typing.get_origin(hint) is dict:
        return {"extra": 1}
    return {bool: True, int: 1, float: 1.0, str: "x"}[hint]


def _candidates(value, hint):
    """Changed values for one leaf, tried in order until one validates."""
    if value is None or value == ():
        sample = _sample(hint)
        return [] if sample is None else [sample]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, float):
        return [value + 1.0, value / 2.0]
    if isinstance(value, str):
        # TimelineEvent.action is the one string checked on construction.
        return [value + "-x", *(action for action in ACTIONS if action != value)]
    if isinstance(value, tuple):
        return [value + value[-1:]]
    if isinstance(value, dict):
        return [{**value, "extra": 1}]
    raise TypeError(f"no mutation for {value!r}")


def _replace(obj, name, value):
    try:
        return dataclasses.replace(obj, **{name: value})
    except ValueError:  # the spec refuses this combination of fields
        return None


def _mutations(obj, covered):
    """Yield ``(path, base, changed)`` for every leaf of ``obj``.

    ``changed`` is ``base`` with that one leaf changed; ``base`` is ``obj``,
    or ``obj`` with an unset nested spec set to its defaults.  ``covered``
    collects the ``(type, field)`` pairs reached, so a field no
    preset could change shows up as uncovered rather than passing silently.
    """
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        if f.name == "definition":
            continue  # an inline definition is refused outright (below)
        value = getattr(obj, f.name)
        if value is None and _dataclasses_in(hints[f.name]):
            # An unset nested spec: setting it is one change, and so is
            # changing each leaf of the spec it is set to.
            value = _sample(hints[f.name])
            changed = _replace(obj, f.name, value)
            if changed is None:
                continue
            covered.add((type(obj).__name__, f.name))
            yield f.name, obj, changed
        if dataclasses.is_dataclass(value):
            children = [(f.name, value, lambda sub: sub)]
        elif value and isinstance(value, tuple) and dataclasses.is_dataclass(value[0]):
            children = [
                (f"{f.name}[{i}]", item, lambda sub, i=i, v=value: v[:i] + (sub,) + v[i + 1:])
                for i, item in enumerate(value)
            ]
        else:
            for candidate in _candidates(value, hints[f.name]):
                changed = None if candidate == value else _replace(obj, f.name, candidate)
                if changed is not None:
                    covered.add((type(obj).__name__, f.name))
                    yield f.name, obj, changed
                    break
            continue
        for prefix, child, rebuild in children:
            for path, sub_base, sub in _mutations(child, covered):
                base = _replace(obj, f.name, rebuild(sub_base))
                changed = _replace(obj, f.name, rebuild(sub))
                if base is not None and changed is not None:
                    covered.add((type(obj).__name__, f.name))
                    yield f"{prefix}.{path}", base, changed


def _dataclasses_in(hint):
    if dataclasses.is_dataclass(hint):
        return [hint]
    return [cls for arg in typing.get_args(hint) for cls in _dataclasses_in(arg)]


def _every_field(cls):
    """Every ``(type, field)`` pair reachable from ``cls``'s annotations."""
    hints = typing.get_type_hints(cls)
    pairs = set()
    for f in dataclasses.fields(cls):
        if f.name != "definition":
            pairs.add((cls.__name__, f.name))
            for nested in _dataclasses_in(hints[f.name]):
                pairs |= _every_field(nested)
    return pairs


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_leaf_reaches_the_payload_and_the_restore_check(name, tmp_path):
    spec = get_scenario(name)
    payload = spec.to_payload()
    assert json.loads(json.dumps(payload)) == payload  # JSON-native: no tuples
    path = write_snapshot(
        Snapshot(scenario=payload, seed=spec.seed, cut={}), tmp_path / "cut.snap"
    )
    assert load_restore_snapshot(path, payload, spec.seed).scenario == payload

    mutations = list(_mutations(spec, set()))
    assert len(mutations) > 30
    for where, base, changed in mutations:
        assert changed.to_payload() != base.to_payload(), where
        with pytest.raises(SnapshotError, match="different scenario"):
            load_restore_snapshot(path, changed.to_payload(), spec.seed)


def test_the_presets_change_every_field_of_every_spec_type():
    covered = set()
    for name in sorted(SCENARIOS):
        for _ in _mutations(get_scenario(name), covered):
            pass
    assert _every_field(ScenarioSpec) - covered == set()


def test_stream_and_dynamics_tuples_reach_the_payload():
    spec = get_scenario("stream-steady")
    changed = dataclasses.replace(
        spec,
        streaming=dataclasses.replace(
            spec.streaming, scripted_arrivals=(3.0, 9.5), slo_choices=(40.0, 80.0)
        ),
        dynamics=dataclasses.replace(spec.dynamics, target_endpoints=("a", "b")),
    )
    payload = changed.to_payload()
    assert payload["streaming"]["scripted_arrivals"] == [3.0, 9.5]
    assert payload["streaming"]["slo_choices"] == [40.0, 80.0]
    assert payload["dynamics"]["target_endpoints"] == ["a", "b"]


def test_an_inline_definition_cannot_be_snapshotted():
    spec = get_scenario("ci-smoke")
    inline = dataclasses.replace(
        spec, workload=dataclasses.replace(spec.workload, definition=object())
    )
    with pytest.raises(SnapshotError, match="inline workflow definitions"):
        inline.to_payload()
    assert "definition" not in spec.to_payload()["workload"]
