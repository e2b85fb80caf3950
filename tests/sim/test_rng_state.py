"""Round-tripping named RNG streams through get_state/set_state."""

from repro.sim.rng import RngRegistry


class TestStreamStateRoundTrip:
    def test_single_stream_restored_tail_is_identical(self):
        reg = RngRegistry(seed=11)
        reg.stream("exec").random(100)  # advance past the seed point
        saved = reg.get_state("exec")
        expected_tail = list(reg.stream("exec").random(50))
        reg.stream("exec").random(999)  # drift far away
        reg.set_state(saved, "exec")
        assert list(reg.stream("exec").random(50)) == expected_tail

    def test_state_restores_into_a_fresh_registry(self):
        source = RngRegistry(seed=7)
        for name in ("exec", "transfer", "dynamics"):
            source.stream(name).random(25)
        saved = source.get_state()
        expected = {
            name: list(source.stream(name).random(20))
            for name in ("exec", "transfer", "dynamics")
        }

        target = RngRegistry(seed=7)
        target.set_state(saved)
        for name, tail in expected.items():
            assert list(target.stream(name).random(20)) == tail

    def test_full_state_covers_every_named_stream(self):
        reg = RngRegistry(seed=3)
        reg.stream("a")
        reg.stream("b")
        assert sorted(reg.get_state()) == ["a", "b"]

    def test_state_is_a_deep_copy(self):
        reg = RngRegistry(seed=5)
        reg.stream("x").random(10)
        saved = reg.get_state("x")
        expected = list(reg.stream("x").random(10))
        # Advancing the live stream must not corrupt the saved state dict.
        reg.stream("x").random(123)
        reg.set_state(saved, "x")
        assert list(reg.stream("x").random(10)) == expected

    def test_state_is_json_native(self):
        import json

        reg = RngRegistry(seed=9)
        reg.stream("exec").random(42)
        payload = json.dumps(reg.get_state())
        restored = RngRegistry(seed=9)
        restored.set_state(json.loads(payload))
        expected = list(reg.stream("exec").random(10))
        assert list(restored.stream("exec").random(10)) == expected
