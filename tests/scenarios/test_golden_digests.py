"""Every scenario preset reproduces its committed artifact, byte for byte.

``tests/golden/digests.json`` holds one SHA-256 per preset — and per
variant, ``ci-smoke`` under the schedulers no preset runs — over the whole
``ScenarioResult.to_json()`` payload — outcome metrics and the digest over
the complete expanded event log — at the commit that generated it.  A single
reordered or dropped per-task event anywhere in a run changes it.
``tests/golden/outcomes.json`` holds the same payloads without their
event-order digests, so a change that reorders events while leaving every
outcome equal (the one kind of re-baseline the roadmap's ground rules allow)
is told apart from one that moves an outcome.  Regenerate both only for an
intended behaviour change, with ``PYTHONPATH=src python
tests/golden/regenerate.py``, and review the diff.
"""

import json

import pytest

from repro.scenarios.presets import SCENARIOS, scenario_names
from repro.scenarios.spec import run_scenario

from tests.golden.regenerate import (
    GOLDEN_PATH,
    OUTCOMES_PATH,
    VARIANTS,
    artifact_sha256,
    outcomes,
    pinned_specs,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
OUTCOMES = json.loads(OUTCOMES_PATH.read_text())
PINNED = pinned_specs()


@pytest.mark.parametrize("name", list(PINNED))
def test_preset_reproduces_its_golden_digest(name):
    result = run_scenario(PINNED[name])
    # Outcomes first: when both moved, the outcome diff is the one to read.
    assert outcomes(result) == OUTCOMES[name]
    assert artifact_sha256(result) == GOLDEN[name]


def test_presets_cover_the_full_registry():
    # The parametrization tracks the registry, and the golden files track the
    # parametrization: a new preset needs a regenerated digest to pass.  The
    # variants pin Locality and HEFT under both data-plane policies.
    assert len(scenario_names()) >= 9
    assert len(VARIANTS) == 4
    assert set(GOLDEN) == set(OUTCOMES) == set(scenario_names()) | set(VARIANTS)


def test_multi_tenant_presets_are_in_the_matrix():
    # Per-engine record batching and fair-share arbitration only run under
    # multi-workflow presets — make sure the registry keeps at least one.
    assert any(SCENARIOS[name].workflows > 1 for name in scenario_names())
