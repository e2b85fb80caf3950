"""The deterministic replay proof: snapshot, restore, byte-identical tail."""

import json

import pytest

from repro.durability import (
    DurabilityOptions,
    SnapshotError,
    SnapshotStateMismatch,
    read_snapshot,
    spec_from_payload,
    spec_to_payload,
    write_snapshot,
)
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import run_scenario


def _snapshot_then_restore(spec, tmp_path, at_s):
    path = tmp_path / "cut.snap"
    captured = run_scenario(
        spec, durability=DurabilityOptions(snapshot_at=at_s, snapshot_path=str(path))
    )
    restored = run_scenario(
        spec, durability=DurabilityOptions(restore_from=str(path))
    )
    return captured, restored


def test_ci_smoke_replay_proof(tmp_path):
    spec = get_scenario("ci-smoke")
    captured, restored = _snapshot_then_restore(spec, tmp_path, at_s=11.0)

    snap = captured.durability["snapshot"]
    rest = restored.durability["restore"]
    # The restored run loaded the very snapshot the capture run wrote, ...
    assert rest["payload_sha256"] == snap["payload_sha256"]
    # ... verified the full state at the cut, and its post-cut event log is
    # byte-identical to the uninterrupted run's.
    assert rest["verified_at_s"] == snap["at_s"]
    assert rest["tail_entries"] == snap["tail_entries"] > 0
    assert rest["tail_digest"] == snap["tail_digest"]
    # End to end, the two runs are indistinguishable.
    assert restored.determinism_digest == captured.determinism_digest
    assert restored.makespan_s == captured.makespan_s
    assert restored.completed_tasks == captured.completed_tasks


def test_serving_replay_proof(tmp_path):
    """Multi-workflow runs snapshot per-tenant graphs and arbitration state."""
    spec = get_scenario("multi-tenant")
    captured, restored = _snapshot_then_restore(spec, tmp_path, at_s=30.0)
    snapshot = read_snapshot(tmp_path / "cut.snap")
    # One engine section per tenant plus the serving arbitration section.
    assert sorted(snapshot.sections["workflows"]) == ["wf0", "wf1", "wf2", "wf3"]
    assert snapshot.sections["serving"]["policy"] == "fair_share"
    assert restored.durability["restore"]["tail_digest"] == \
        captured.durability["snapshot"]["tail_digest"]
    assert restored.determinism_digest == captured.determinism_digest


def test_snapshot_beyond_makespan_is_a_typed_error(tmp_path):
    spec = get_scenario("ci-smoke")
    with pytest.raises(SnapshotError, match="never reached"):
        run_scenario(
            spec,
            durability=DurabilityOptions(
                snapshot_at=10_000.0, snapshot_path=str(tmp_path / "s.snap")
            ),
        )


def test_tampered_section_raises_state_mismatch(tmp_path):
    spec = get_scenario("ci-smoke")
    path = tmp_path / "cut.snap"
    run_scenario(
        spec, durability=DurabilityOptions(snapshot_at=11.0, snapshot_path=str(path))
    )
    snapshot = read_snapshot(path)
    snapshot.sections["kernel"]["events_processed"] += 1
    write_snapshot(snapshot, path)
    with pytest.raises(SnapshotStateMismatch, match="kernel.events_processed"):
        run_scenario(spec, durability=DurabilityOptions(restore_from=str(path)))


def test_restore_refuses_a_different_seed(tmp_path):
    spec = get_scenario("ci-smoke")
    path = tmp_path / "cut.snap"
    run_scenario(
        spec, durability=DurabilityOptions(snapshot_at=11.0, snapshot_path=str(path))
    )
    with pytest.raises(SnapshotError, match="seed"):
        run_scenario(
            spec, seed=123, durability=DurabilityOptions(restore_from=str(path))
        )


def test_restore_refuses_a_different_scenario(tmp_path):
    path = tmp_path / "cut.snap"
    run_scenario(
        get_scenario("ci-smoke"),
        durability=DurabilityOptions(snapshot_at=11.0, snapshot_path=str(path)),
    )
    other = get_scenario("chaos-churn-dha")
    with pytest.raises(SnapshotError, match="different scenario"):
        run_scenario(other, durability=DurabilityOptions(restore_from=str(path)))


def test_snapshot_and_restore_are_mutually_exclusive(tmp_path):
    spec = get_scenario("ci-smoke")
    with pytest.raises(SnapshotError, match="mutually exclusive"):
        run_scenario(
            spec,
            durability=DurabilityOptions(
                snapshot_at=5.0, restore_from=str(tmp_path / "x.snap")
            ),
        )


def test_spec_payload_round_trip():
    """The replay recipe embedded in a snapshot rebuilds the same spec."""
    for name in ("ci-smoke", "multi-tenant", "orch-crash-storm", "hot-dataset"):
        spec = get_scenario(name)
        payload = spec_to_payload(spec)
        json.dumps(payload)  # must be JSON-native
        assert spec_from_payload(payload) == spec


def test_durability_key_absent_without_durability():
    result = run_scenario(get_scenario("ci-smoke"))
    assert result.durability == {}
    assert '"durability"' not in result.to_json()
