"""Tests for the deterministic RNG registry."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(seed=3).stream("exec")
        b = RngRegistry(seed=3).stream("exec")
        assert list(a.random(5)) == list(b.random(5))

    def test_different_streams_are_independent(self):
        reg = RngRegistry(seed=3)
        a = list(reg.stream("exec").random(5))
        b = list(reg.stream("transfer").random(5))
        assert a != b

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("exec")
        b = RngRegistry(seed=2).stream("exec")
        assert list(a.random(5)) != list(b.random(5))

    def test_stream_cached(self):
        reg = RngRegistry()
        assert reg.stream("x") is reg.stream("x")

    def test_seed_property(self):
        assert RngRegistry(seed=42).seed == 42
