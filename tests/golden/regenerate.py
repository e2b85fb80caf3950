"""Regenerate ``tests/golden/digests.json`` and ``tests/golden/outcomes.json``.

    PYTHONPATH=src python tests/golden/regenerate.py

``digests.json`` holds one SHA-256 per preset over the whole
``ScenarioResult.to_json()`` artifact (default modes, preset seed).
``outcomes.json`` holds the same artifact with its event-order digests
removed (the top-level ``determinism_digest`` and each tenant's
``event_digest``): what a run produced, apart from the order it happened in.
``tests/scenarios/test_golden_digests.py`` asserts both from one run per
preset, so a change that moves any byte of any preset's artifact shows up as
a reviewed diff of a JSON file — and a change that moves only event order
leaves ``outcomes.json`` untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.scenarios.presets import SCENARIOS, scenario_names
from repro.scenarios.spec import run_scenario

GOLDEN_PATH = Path(__file__).with_name("digests.json")
OUTCOMES_PATH = Path(__file__).with_name("outcomes.json")


def artifact_sha256(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def outcomes(result) -> dict:
    """``result``'s artifact without the digests of its event order."""
    payload = json.loads(result.to_json())
    del payload["determinism_digest"]
    for tenant in payload.get("serving", {}).get("workflows", {}).values():
        del tenant["event_digest"]
    return payload


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main() -> None:
    results = {name: run_scenario(SCENARIOS[name]) for name in scenario_names()}
    _write(GOLDEN_PATH, {name: artifact_sha256(r) for name, r in results.items()})
    _write(OUTCOMES_PATH, {name: outcomes(r) for name, r in results.items()})
    print(f"wrote {len(results)} digests to {GOLDEN_PATH} and outcomes to {OUTCOMES_PATH}")


if __name__ == "__main__":
    main()
