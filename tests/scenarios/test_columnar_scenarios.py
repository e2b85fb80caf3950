"""Columnar ≡ scalar engine core across every scenario preset, end to end.

The columnar engine changes *how* the run executes — batched event delivery,
array-backed state/demand queries, vectorized serving arbitration — but must
not change *what* happens.  Running every preset (including the
multi-workflow serving presets) on both paths must produce the byte-identical
result payload, including the SHA-256 digest over the complete expanded
event log: a single reordered or dropped per-task event anywhere in a run
would change the digest.

The default-mode run is also pinned to ``tests/golden/digests.json`` (SHA-256
of the whole artifact at the commit that generated it; regenerate with
``PYTHONPATH=src python tests/golden/regenerate.py`` and review the diff), so
"both paths agree" cannot hide "both paths moved".
"""

import dataclasses
import json

import pytest

from repro.scenarios.presets import SCENARIOS, scenario_names
from repro.scenarios.spec import run_scenario

from tests.golden.regenerate import GOLDEN_PATH, artifact_sha256

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", scenario_names())
def test_preset_digest_identical_across_columnar_and_scalar(name):
    preset = SCENARIOS[name]
    columnar = run_scenario(dataclasses.replace(preset, columnar=True))
    scalar = run_scenario(dataclasses.replace(preset, columnar=False))
    assert columnar.determinism_digest == scalar.determinism_digest
    assert columnar.to_json() == scalar.to_json()
    assert artifact_sha256(columnar) == GOLDEN[name]


def test_presets_cover_the_full_registry():
    # The parametrization tracks the registry: any new preset automatically
    # joins the columnar equivalence matrix (and the serving presets keep the
    # batched-record + vectorized-arbitration path covered).
    assert len(scenario_names()) >= 9


def test_multi_tenant_presets_are_in_the_matrix():
    # The serving layer's batched completion delivery and vectorized
    # fair-share only run under multi-workflow presets — make sure the
    # registry keeps at least one.
    assert any(SCENARIOS[name].workflows > 1 for name in scenario_names())
