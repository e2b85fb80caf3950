"""Open-loop streaming scenario tests.

Covers the ``stream-steady`` / ``stream-overload`` presets end to end: the
steady-state BENCH payload, byte determinism, the EDF-vs-FIFO deadline gate
on the overload preset, arrivals landing inside an orchestrator-crash restart
window, and the durability replay proof with the streaming section.
"""

import dataclasses

from repro.durability import DurabilityOptions, read_snapshot
from repro.scenarios.dynamics import DynamicsSpec, OrchestratorCrash
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import run_scenario


class TestSteadyPreset:
    def test_stream_steady_runs_clean(self):
        result = run_scenario(get_scenario("stream-steady"), max_wall_time_s=120)
        streaming = result.streaming
        assert streaming["policy"] == "edf"
        assert streaming["arrivals"] == 24
        # Sustainable rate: everything is admitted, served and retired.
        assert streaming["admitted"] == 24
        assert streaming["rejected"] == 0
        assert streaming["abandoned"] == 0
        assert streaming["retired"] == 24
        assert result.completed_tasks == result.total_tasks == 24 * 8
        assert result.failed_tasks == 0
        # Steady-state metrics replace makespan as the headline numbers.
        assert streaming["throughput_per_s"] > 0
        assert streaming["completed"] == 24
        assert streaming["queue_wait_mean_s"] >= 0.0
        assert streaming["wait_p95_s"] >= streaming["wait_mean_s"] > 0.0
        # No serving block on the streaming path — tenants are retired, the
        # per-tenant summary table does not exist.
        assert result.serving == {}

    def test_streaming_payload_rides_the_artifact_json(self):
        result = run_scenario(get_scenario("stream-steady"), max_wall_time_s=120)
        assert '"streaming"' in result.to_json()
        batch = run_scenario(get_scenario("ci-smoke"), max_wall_time_s=120)
        assert batch.streaming == {}
        assert '"streaming"' not in batch.to_json()

    def test_stream_steady_is_byte_deterministic(self):
        spec = get_scenario("stream-steady")
        first = run_scenario(spec, max_wall_time_s=120)
        second = run_scenario(spec, max_wall_time_s=120)
        assert first.to_json() == second.to_json()
        assert first.determinism_digest == second.determinism_digest


class TestOverloadPreset:
    def test_overload_applies_backpressure(self):
        result = run_scenario(get_scenario("stream-overload"), max_wall_time_s=240)
        streaming = result.streaming
        assert streaming["arrivals"] == 80
        # Arrivals outpace capacity: the bounded queue pushes back.
        assert streaming["rejected"] + streaming["abandoned"] > 0
        assert streaming["queue_depth_peak"] > 0
        assert streaming["retired"] == streaming["admitted"]
        assert result.failed_tasks == 0

    def test_edf_cuts_deadline_misses_vs_fifo_at_equal_throughput(self):
        """The tentpole's headline gate: >=20% fewer misses, same throughput."""
        spec = get_scenario("stream-overload")
        edf = run_scenario(spec, max_wall_time_s=240).streaming
        fifo = run_scenario(
            spec.with_overrides(arbitration="fifo"), max_wall_time_s=240
        ).streaming
        assert fifo["deadline_miss_rate"] > 0, "overload preset must miss under FIFO"
        assert edf["deadline_miss_rate"] <= 0.8 * fifo["deadline_miss_rate"]
        # Equal work offered, equal work done: throughput within 10%.
        assert abs(edf["throughput_per_s"] - fifo["throughput_per_s"]) <= (
            0.10 * fifo["throughput_per_s"]
        )


class TestCrashRecovery:
    @staticmethod
    def crash_spec():
        """stream-steady with a crash whose restart window swallows an arrival."""
        base = get_scenario("stream-steady")
        return dataclasses.replace(
            base,
            checkpoint_interval_s=15.0,
            dynamics=DynamicsSpec(
                orchestrator=(OrchestratorCrash(at_s=50.0, restart_delay_s=10.0),)
            ),
            # A scripted arrival at t=55 lands inside the [50, 60) restart
            # window: recovery must admit and serve it like any other.
            streaming=dataclasses.replace(
                base.streaming, scripted_arrivals=(55.0,)
            ),
        )

    def test_arrival_during_restart_window_is_served(self):
        result = run_scenario(self.crash_spec(), max_wall_time_s=240)
        recovery = result.durability["recovery"]
        assert recovery["attempts"] == 2
        (crash,) = recovery["crashes"]
        assert crash["at_s"] == 50.0
        assert crash["resumed_from_s"] == 45.0  # newest checkpoint before 50
        streaming = result.streaming
        assert streaming["arrivals"] == 24 + 1
        assert streaming["admitted"] == 25
        assert result.completed_tasks == result.total_tasks == 25 * 8
        assert streaming["retired"] == 25

    def test_crashed_stream_matches_over_two_executions(self):
        first = run_scenario(self.crash_spec(), max_wall_time_s=240)
        second = run_scenario(self.crash_spec(), max_wall_time_s=240)
        assert first.to_json() == second.to_json()


class TestReplayProof:
    def test_snapshot_restore_replays_the_stream(self, tmp_path):
        spec = get_scenario("stream-steady")
        path = tmp_path / "stream.snap"
        captured = run_scenario(
            spec,
            durability=DurabilityOptions(snapshot_at=40.0, snapshot_path=str(path)),
            max_wall_time_s=240,
        )
        restored = run_scenario(
            spec,
            durability=DurabilityOptions(restore_from=str(path)),
            max_wall_time_s=240,
        )
        snap = captured.durability["snapshot"]
        rest = restored.durability["restore"]
        assert rest["payload_sha256"] == snap["payload_sha256"]
        assert rest["verified_at_s"] == snap["at_s"] == 40.0
        assert rest["tail_entries"] == snap["tail_entries"] > 0
        assert rest["tail_digest"] == snap["tail_digest"]
        assert restored.determinism_digest == captured.determinism_digest
        assert restored.streaming == captured.streaming

    def test_snapshot_carries_streaming_state_and_rng_streams(self, tmp_path):
        spec = get_scenario("stream-steady")
        path = tmp_path / "stream.snap"
        run_scenario(
            spec,
            durability=DurabilityOptions(snapshot_at=40.0, snapshot_path=str(path)),
            max_wall_time_s=240,
        )
        snapshot = read_snapshot(path)
        # The arrival/admission RNG streams ride the registry round trip.
        assert "arrivals" in snapshot.sections["rng"]
        assert "admission" in snapshot.sections["rng"]
        streaming = snapshot.sections["streaming"]
        # Mid-stream cut: some arrivals behind us, more still owed.
        assert 0 < streaming["arrivals"]["total_emitted"] < 24
        assert streaming["arrivals"]["next_arrival_s"] is not None
        assert streaming["admission"]["submitted"] == (
            streaming["arrivals"]["total_emitted"]
        )
        assert streaming["active"] >= 0
        # Engine sections exist only for live (unretired) tenants.
        assert len(snapshot.sections["workflows"]) == streaming["active"]
