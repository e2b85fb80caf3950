"""Deterministic random-number streams for the simulator.

Every stochastic component (task durations, queue delays, transfer jitter,
failure injection) draws from its own named stream derived from a single
experiment seed.  This keeps experiments reproducible and lets individual
components be re-seeded in tests without perturbing the others.

The registry also supports state capture: :meth:`RngRegistry.get_state`
returns a JSON-safe dict of every named stream's bit-generator state, and
:meth:`RngRegistry.set_state` restores it, so a stream restored from a
snapshot emits the identical tail sequence the uninterrupted stream would
have (the durability layer's replay proof depends on this).
"""

from __future__ import annotations

import copy
from typing import Dict

import numpy as np

__all__ = ["RngRegistry", "derive_stream"]


def derive_stream(seed: int, name: str) -> np.random.Generator:
    """A named stream derived from ``seed`` exactly as :class:`RngRegistry`
    derives it — components constructed without a registry in hand (the
    placement service builds its stream straight from
    :attr:`~repro.core.config.Config.random_seed`) get the bit-identical
    generator the registry would have handed out for the same name."""
    child = np.random.SeedSequence([int(seed), _stable_hash(name)])
    return np.random.default_rng(child)


class RngRegistry:
    """Registry of named, independently seeded NumPy generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            # Derive a child seed from the experiment seed and the stream name
            # so streams are independent and stable across runs.
            self._streams[name] = derive_stream(self._seed, name)
        return self._streams[name]

    # ------------------------------------------------------------- snapshots
    def get_state(self, name: str | None = None) -> Dict[str, object]:
        """Bit-generator state of one stream, or of every named stream.

        The returned dict contains only JSON-native values (NumPy's PCG64
        state is plain Python ints), so it can be embedded in a snapshot
        payload verbatim.
        """
        if name is not None:
            return copy.deepcopy(self.stream(name).bit_generator.state)
        return {
            stream: copy.deepcopy(self._streams[stream].bit_generator.state)
            for stream in sorted(self._streams)
        }

    def set_state(self, state: Dict[str, object], name: str | None = None) -> None:
        """Restore state captured by :meth:`get_state`.

        With ``name``, ``state`` is one stream's bit-generator state;
        without, it maps stream names to states (streams are created on
        demand, so restoring into a fresh registry works).
        """
        if name is not None:
            self.stream(name).bit_generator.state = copy.deepcopy(state)
            return
        for stream, stream_state in state.items():
            self.stream(stream).bit_generator.state = copy.deepcopy(stream_state)


def _stable_hash(name: str) -> int:
    """Deterministic 32-bit hash of a stream name (``hash()`` is salted)."""
    value = 2166136261
    for ch in name.encode("utf-8"):
        value ^= ch
        value = (value * 16777619) & 0xFFFFFFFF
    return value
