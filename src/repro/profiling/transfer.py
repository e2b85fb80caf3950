"""Transfer profiler (§IV-C).

Data transfer time is primarily determined by the data size and the network
conditions between endpoints.  The profiler keeps, per (source, destination)
pair, a polynomial-regression model over ``(size_mb, concurrency)`` trained
on observed transfers, plus a running bandwidth estimate used before enough
observations exist.  When a pair has never been observed at all, the profiler
can fall back to probing (small synthetic transfers) or to a configurable
default bandwidth.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.transfer import TransferResult
from repro.monitor.store import HistoryStore, TransferRecord
from repro.profiling.models import PolynomialRegression

__all__ = ["TransferProfiler"]

Pair = Tuple[str, str]

#: Entry cap of the prediction memo; reaching it clears the memo.
_MEMO_CAP = 4096
#: The probe transfers a seeded bandwidth stands for, in MB.
_PROBE_SIZES_MB = (10.0, 100.0, 1000.0)
#: A retrain fits the latest this many observations of a pair.
_MAX_TRAINING_SAMPLES = 512


class _PairModel:
    def __init__(self, degree: int = 2) -> None:
        self.model = PolynomialRegression(degree=degree)
        self.samples: List[Tuple[float, float, float]] = []  # (size_mb, concurrency, duration)
        self.trained_on = 0
        #: Moves whenever :meth:`predict` may answer differently: on every
        #: sample while untrained (the bandwidth estimate shifts) and on every
        #: (re)train.  A trained model predicts from its coefficients, which
        #: new samples do not touch until the next :meth:`train`.
        self.stamp = 0

    def add(self, size_mb: float, concurrency: float, duration_s: float) -> bool:
        """Record one observation; True when it moved the pair's predictions."""
        self.samples.append((size_mb, concurrency, duration_s))
        if self.trained_on == 0:
            self.stamp += 1
            return True
        return False

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    def observed_bandwidth_mbps(self) -> Optional[float]:
        """Harmonic estimate of bandwidth from the observed transfers."""
        sized = [(s, d) for s, _, d in self.samples if s > 0 and d > 0]
        if not sized:
            return None
        total_mb = sum(s for s, _ in sized)
        total_s = sum(d for _, d in sized)
        if total_s <= 0:
            return None
        return total_mb / total_s

    def train(self) -> None:
        if not self.samples:
            return
        rows = self.samples[-_MAX_TRAINING_SAMPLES:]
        X = np.array([[s, c] for s, c, _ in rows], dtype=float)
        y = np.array([d for _, _, d in rows], dtype=float)
        self.model.fit(X, y)
        self.trained_on = self.sample_count
        self.stamp += 1

    def predict(self, size_mb: float, concurrency: float) -> Optional[float]:
        if self.trained_on == 0:
            bandwidth = self.observed_bandwidth_mbps()
            if bandwidth is None or bandwidth <= 0:
                return None
            return size_mb / bandwidth
        value = float(self.model.predict([[size_mb, concurrency]])[0])
        return max(0.0, value)


class TransferProfiler:
    """Per endpoint-pair transfer-time predictor."""

    #: Bandwidth (MB/s) assumed for a pair with no usable observation.
    default_bandwidth_mbps = 100.0

    def __init__(
        self,
        store: Optional[HistoryStore] = None,
        *,
        min_samples_to_train: int = 3,
        degree: int = 2,
    ) -> None:
        if min_samples_to_train < 1:
            raise ValueError("min_samples_to_train must be >= 1")
        self.min_samples_to_train = min_samples_to_train
        self._degree = degree
        self._pairs: Dict[Pair, _PairModel] = defaultdict(lambda: _PairModel(self._degree))
        #: Monotonic counter bumped whenever any prediction may have changed:
        #: an observation shifts an *untrained* pair's bandwidth estimate
        #: (a trained pair predicts from its coefficients until the next
        #: retrain — the rule ``ExecutionProfiler._add_sample`` follows), and
        #: retrains change the fitted models.  Consumers caching transfer
        #: predictions (the array-backed scheduling context) stamp their
        #: entries with this version.
        self.prediction_version = 0
        #: ``(src, dst, size_mb, concurrency)`` -> ``(seconds, stamp)`` where
        #: the stamp is the forward and reverse pair models' own stamps, so an
        #: observation on one link leaves every other link's entries valid.
        self._memo: Dict[Tuple[str, str, float, float], Tuple[float, Tuple[int, int]]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        if store is not None:
            self.load_history(store)

    # -------------------------------------------------------------- training
    def load_history(self, store: HistoryStore) -> int:
        loaded = 0
        for record in store.transfer_records():
            self._observe_record(record)
            loaded += 1
        self.update_models(force=True)
        return loaded

    def observe(self, result: TransferResult, concurrency: int = 1) -> None:
        """Ingest a live transfer result from the data manager / monitor."""
        if not result.success:
            return
        pair = (result.request.src, result.request.dst)
        if self._pairs[pair].add(
            result.request.size_mb, float(concurrency), result.duration_s
        ):
            self.prediction_version += 1

    def _observe_record(self, record: TransferRecord) -> None:
        if not record.success:
            return
        if self._pairs[(record.src, record.dst)].add(
            record.size_mb, float(record.concurrency), record.duration_s
        ):
            self.prediction_version += 1

    def seed_bandwidth(self, src: str, dst: str, bandwidth_mbps: float) -> None:
        """Seed a pair with a known bandwidth (probing transfers, §IV-C).

        This is how experiments give DHA "full knowledge": a few synthetic
        observations equivalent to probe transfers at the given bandwidth.
        """
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        model = self._pairs[(src, dst)]
        moved = False
        for size in _PROBE_SIZES_MB:
            moved |= model.add(size, 1.0, size / bandwidth_mbps)
        if moved:
            self.prediction_version += 1

    def update_models(self, force: bool = False) -> int:
        retrained = 0
        for model in self._pairs.values():
            if model.sample_count < self.min_samples_to_train:
                continue
            if force or model.sample_count > model.trained_on:
                model.train()
                retrained += 1
        if retrained:
            self.prediction_version += 1
        return retrained

    # ------------------------------------------------------------- prediction
    def predict_transfer_time(
        self, src: str, dst: str, size_mb: float, concurrency: int = 1
    ) -> float:
        """Predicted transfer duration in seconds (0 for co-located data)."""
        if src == dst or size_mb <= 0:
            return 0.0
        forward = self._pairs.get((src, dst))
        reverse = self._pairs.get((dst, src))
        stamp = (
            -1 if forward is None else forward.stamp,
            -1 if reverse is None else reverse.stamp,
        )
        key = (src, dst, size_mb, concurrency)
        cached = self._memo.get(key)
        if cached is not None and cached[1] == stamp:
            self.cache_hits += 1
            return cached[0]
        self.cache_misses += 1
        predicted = self._predict(forward, reverse, size_mb, float(concurrency))
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[key] = (predicted, stamp)
        return predicted

    def _predict(
        self,
        forward: Optional[_PairModel],
        reverse: Optional[_PairModel],
        size_mb: float,
        concurrency: float,
    ) -> float:
        # Try the reverse direction before falling back to the default: WAN
        # links are close to symmetric and it is better than nothing.
        for model in (forward, reverse):
            if model is not None:
                predicted = model.predict(size_mb, concurrency)
                if predicted is not None:
                    return predicted
        return size_mb / self.default_bandwidth_mbps

    def sample_count(self, src: str, dst: str) -> int:
        model = self._pairs.get((src, dst))
        return model.sample_count if model else 0
