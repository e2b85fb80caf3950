"""Every scenario preset reproduces its committed artifact, byte for byte.

``tests/golden/digests.json`` holds one SHA-256 per preset over the whole
``ScenarioResult.to_json()`` payload — outcome metrics and the digest over
the complete expanded event log — at the commit that generated it.  A single
reordered or dropped per-task event anywhere in a run changes it.  Regenerate
only for an intended behaviour change, with
``PYTHONPATH=src python tests/golden/regenerate.py``, and review the diff.
"""

import json

import pytest

from repro.scenarios.presets import SCENARIOS, scenario_names
from repro.scenarios.spec import run_scenario

from tests.golden.regenerate import GOLDEN_PATH, artifact_sha256

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", scenario_names())
def test_preset_reproduces_its_golden_digest(name):
    assert artifact_sha256(run_scenario(SCENARIOS[name])) == GOLDEN[name]


def test_presets_cover_the_full_registry():
    # The parametrization tracks the registry, and the golden file tracks the
    # parametrization: a new preset needs a regenerated digest to pass.
    assert len(scenario_names()) >= 9
    assert set(GOLDEN) == set(scenario_names())


def test_multi_tenant_presets_are_in_the_matrix():
    # Per-engine record batching and fair-share arbitration only run under
    # multi-workflow presets — make sure the registry keeps at least one.
    assert any(SCENARIOS[name].workflows > 1 for name in scenario_names())
