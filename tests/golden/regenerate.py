"""Regenerate ``tests/golden/digests.json`` and ``tests/golden/outcomes.json``,
or write the byte-identity sweep.

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden/regenerate.py --sweep OUT.json

``digests.json`` holds one SHA-256 per pinned run over the whole
``ScenarioResult.to_json()`` artifact: every preset (default modes, preset
seed), plus :data:`VARIANTS`, ``ci-smoke`` under the schedulers no preset
runs.  ``outcomes.json`` holds the same artifact with its event-order digests
removed (the top-level ``determinism_digest`` and each tenant's
``event_digest``): what a run produced, apart from the order it happened in.
``tests/scenarios/test_golden_digests.py`` asserts both from one run per pin,
so a change that moves any byte of any pinned artifact shows up as a reviewed
diff of a JSON file — and a change that moves only event order leaves
``outcomes.json`` untouched.

``--sweep OUT.json`` writes one SHA-256 per artifact of the byte-identity
check a change that claims to leave behaviour alone is held to (72 runs):
every preset under the default modes, ``--no-dataplane`` and
``--no-placement``, the four ``benchmarks/e2e`` workloads at seeds 1 and 2,
and the variants.  Run it on a checkout of the parent commit and on the
change, and ``diff`` the two files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.scenarios.presets import SCENARIOS, scenario_names
from repro.scenarios.spec import ScenarioSpec, run_scenario

GOLDEN_PATH = Path(__file__).with_name("digests.json")
OUTCOMES_PATH = Path(__file__).with_name("outcomes.json")
E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _variants() -> Dict[str, ScenarioSpec]:
    # Every preset runs DHA: pin the other schedulers' decisions on the small
    # preset, under both data-plane policies.
    variants = {}
    for scheduler in ("locality", "heft"):
        for dataplane, suffix in ((True, ""), (False, "+no-dataplane")):
            variants[f"ci-smoke@{scheduler}{suffix}"] = SCENARIOS["ci-smoke"].with_overrides(
                scheduler=scheduler, dataplane=dataplane
            )
    return variants


VARIANTS: Dict[str, ScenarioSpec] = _variants()


def pinned_specs() -> Dict[str, ScenarioSpec]:
    """Every run ``digests.json`` and ``outcomes.json`` pin, by key."""
    specs = {name: SCENARIOS[name] for name in scenario_names()}
    specs.update(VARIANTS)
    return specs


def artifact_sha256(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def outcomes(result) -> dict:
    """``result``'s artifact without the digests of its event order."""
    payload = json.loads(result.to_json())
    del payload["determinism_digest"]
    for tenant in payload.get("serving", {}).get("workflows", {}).values():
        del tenant["event_digest"]
    return payload


def sweep() -> Dict[str, str]:
    """One SHA-256 per artifact of the byte-identity check, by key."""
    sys.path.insert(0, str(E2E_DIR))
    import workloads

    digests = {}
    for name in scenario_names():
        spec = SCENARIOS[name]
        digests[name] = artifact_sha256(run_scenario(spec))
        digests[f"{name}+no-dataplane"] = artifact_sha256(
            run_scenario(spec.with_overrides(dataplane=False))
        )
        digests[f"{name}+no-placement"] = artifact_sha256(
            run_scenario(spec.with_overrides(placement=False))
        )
    for name in sorted(workloads.BUILDERS):
        for seed in (1, 2):
            digests[f"e2e:{name}@seed{seed}"] = artifact_sha256(
                run_scenario(workloads.build_spec(name), seed=seed)
            )
    for key, spec in VARIANTS.items():
        digests[key] = artifact_sha256(run_scenario(spec))
    return digests


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate the golden pins.")
    parser.add_argument("--sweep", type=Path, metavar="OUT.json",
                        help="write the byte-identity sweep to OUT.json instead")
    args = parser.parse_args(argv)
    if args.sweep is not None:
        digests = sweep()
        _write(args.sweep, digests)
        print(f"wrote {len(digests)} artifact digests to {args.sweep}")
        return
    results = {key: run_scenario(spec) for key, spec in pinned_specs().items()}
    _write(GOLDEN_PATH, {key: artifact_sha256(r) for key, r in results.items()})
    _write(OUTCOMES_PATH, {key: outcomes(r) for key, r in results.items()})
    print(f"wrote {len(results)} digests to {GOLDEN_PATH} and outcomes to {OUTCOMES_PATH}")


if __name__ == "__main__":
    main()
