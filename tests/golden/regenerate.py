"""Regenerate ``tests/golden/digests.json``.

    PYTHONPATH=src python tests/golden/regenerate.py

One SHA-256 per preset over the whole ``ScenarioResult.to_json()`` artifact
(default modes, preset seed).  ``tests/scenarios/test_golden_digests.py``
asserts them, one run per preset, so a change that moves any byte of any
preset's artifact shows up as a reviewed diff of the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.scenarios.presets import SCENARIOS, scenario_names
from repro.scenarios.spec import run_scenario

GOLDEN_PATH = Path(__file__).with_name("digests.json")


def artifact_sha256(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def main() -> None:
    digests = {name: artifact_sha256(run_scenario(SCENARIOS[name])) for name in scenario_names()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
