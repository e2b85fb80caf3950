"""Execution profiler (§IV-C).

One performance model is maintained per function.  The model takes the input
size and the endpoint's hardware features (cores, CPU frequency, RAM) and
estimates the task's execution time and output data size.  Models are
(re)trained from the history store when the workflow starts and refreshed
periodically as the task monitor streams in new observations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faas.types import TaskExecutionRecord
from repro.monitor.store import HistoryStore, TaskRecord
from repro.profiling.models import RandomForestRegressor

__all__ = ["ExecutionProfiler"]

#: Feature vector layout: (input_mb, cores_per_node, cpu_freq_ghz, ram_gb).
FEATURES = ("input_mb", "cores_per_node", "cpu_freq_ghz", "ram_gb")

#: Entry cap of the scalar prediction memo and of each function's row table;
#: reaching it clears the one that reached it.
_MEMO_CAP = 4096
#: A retrain fits the latest this many observations of a function.
_MAX_TRAINING_SAMPLES = 512


def _new_model() -> RandomForestRegressor:
    """A fresh, unfitted model of one function's time or output size."""
    return RandomForestRegressor(n_estimators=8, max_depth=6)


class _FunctionModel:
    """Time + output-size models for one function."""

    def __init__(self, max_retained: Optional[int]) -> None:
        self.time_model = _new_model()
        self.output_model = _new_model()
        self.samples: List[Tuple[Tuple[float, float, float, float], float, float]] = []
        self.max_retained = max_retained
        #: Total observations ever ingested (monotonic; with a bounded
        #: retention window ``len(samples)`` stops growing but this does not,
        #: so retraining keeps triggering on fresh observations).
        self.observed = 0
        self.trained_on = 0
        #: Moves whenever a prediction may answer differently: on every
        #: warm-up sample (an untrained model predicts the running mean of
        #: its samples) and on every (re)train.
        self.stamp = 0
        #: ``(hardware shape and bytes, input_mb)`` -> the trained forest's
        #: per-endpoint predictions under the current ``stamp``.  The key is
        #: the value predicted from, not the task it was predicted for, so
        #: one table serves every tenant of the federation.
        self._rows: Dict[Tuple, np.ndarray] = {}
        self.rows_computed = 0
        self.rows_reused = 0

    def add(
        self, features: Tuple[float, float, float, float], time_s: float, output_mb: float
    ) -> bool:
        """Record one observation; True when it moved the model's predictions."""
        self.samples.append((features, time_s, output_mb))
        self.observed += 1
        if self.max_retained is not None and len(self.samples) > self.max_retained:
            del self.samples[: len(self.samples) - self.max_retained]
        if self.trained_on == 0:
            self._predictions_moved()
            return True
        return False

    def _predictions_moved(self) -> None:
        self.stamp += 1
        self._rows.clear()

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    def needs_training(self) -> bool:
        return self.observed > self.trained_on

    def train(self) -> None:
        if not self.samples:
            return
        rows = self.samples[-_MAX_TRAINING_SAMPLES:]
        X = np.array([r[0] for r in rows], dtype=float)
        times = np.array([r[1] for r in rows], dtype=float)
        outputs = np.array([r[2] for r in rows], dtype=float)
        self.time_model.fit(X, times)
        self.output_model.fit(X, outputs)
        self.trained_on = self.observed
        self._predictions_moved()

    def predict_time(self, features: Sequence[float]) -> Optional[float]:
        if self.trained_on == 0:
            if not self.samples:
                return None
            return float(np.mean([r[1] for r in self.samples]))
        return float(max(0.0, self.time_model.predict([list(features)])[0]))

    def predict_time_matrix(
        self, input_mb: np.ndarray, hardware: np.ndarray
    ) -> Optional[np.ndarray]:
        """Batched :meth:`predict_time` over tasks × endpoints.

        ``input_mb`` has shape ``(T,)``, ``hardware`` shape ``(E, 3)``; the
        result has shape ``(T, E)`` and every cell equals the scalar
        ``predict_time((input_mb[t], *hardware[e]))`` bit for bit — the
        array-backed scheduling context relies on that to make vectorized
        placement decisions byte-identical to the scalar path.  The forest is
        evaluated only for ``(hardware, input_mb)`` values not yet in this
        model generation's row table; the result is always a fresh array.
        """
        tasks = len(input_mb)
        endpoints = len(hardware)
        if self.trained_on == 0:
            if not self.samples:
                return None
            mean = float(np.mean([r[1] for r in self.samples]))
            return np.full((tasks, endpoints), mean)
        table = self._rows
        endpoint_set = (hardware.shape, hardware.tobytes())
        positions: Dict[float, List[int]] = {}
        for position, value in enumerate(input_mb.tolist()):
            positions.setdefault(value, []).append(position)
        if len(table) + len(positions) > _MEMO_CAP:
            table.clear()
        missing = [value for value in positions if (endpoint_set, value) not in table]
        if missing:
            X = np.empty((len(missing) * endpoints, 1 + hardware.shape[1]))
            X[:, 0] = np.repeat(missing, endpoints)
            X[:, 1:] = np.tile(hardware, (len(missing), 1))
            predictions = np.maximum(0.0, self.time_model.predict(X))
            for value, row in zip(missing, predictions.reshape(len(missing), endpoints)):
                table[(endpoint_set, value)] = row
        self.rows_computed += len(missing)
        self.rows_reused += tasks - len(missing)
        result = np.empty((tasks, endpoints))
        for value, rows in positions.items():
            result[rows] = table[(endpoint_set, value)]
        return result

    def predict_output(self, features: Sequence[float]) -> Optional[float]:
        if self.trained_on == 0:
            if not self.samples:
                return None
            return float(np.mean([r[2] for r in self.samples]))
        return float(max(0.0, self.output_model.predict([list(features)])[0]))


class ExecutionProfiler:
    """Per-function execution-time and output-size predictor."""

    def __init__(
        self,
        store: Optional[HistoryStore] = None,
        *,
        min_samples_to_train: int = 3,
    ) -> None:
        if min_samples_to_train < 1:
            raise ValueError("min_samples_to_train must be >= 1")
        #: Opt-in bounded sample window (streaming runs): keep only the last N
        #: observations per function so millions of tasks cannot grow the
        #: profiler without bound.  ``None`` (the default) retains everything
        #: — the historical behavior, whose running-mean warm-up predictions
        #: existing preset digests depend on.  Set it before the first
        #: observation of a function: each function's model reads it once.
        self.max_samples_retained: Optional[int] = None
        self._models: Dict[str, _FunctionModel] = defaultdict(
            lambda: _FunctionModel(self.max_samples_retained)
        )
        self.min_samples_to_train = min_samples_to_train
        #: Monotonic counter bumped whenever any prediction may have changed:
        #: on every retrain, and on warm-up observations (an untrained model
        #: predicts the running mean of its samples, which shifts per
        #: observation).  Consumers memoizing predictions — the scheduling
        #: context — stamp cache entries with this version.
        self.prediction_version = 0
        #: ``(predictor, function, input_mb, *hardware)`` -> ``(prediction,
        #: stamp)`` for the two scalar predictors, stamped with that function
        #: model's own stamp so one function's observations leave the others'
        #: entries valid.  The caller's ``default`` is applied after the lookup.
        self._memo: Dict[Tuple, Tuple[Optional[float], int]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        if store is not None:
            self.load_history(store)

    # -------------------------------------------------------------- training
    def load_history(self, store: HistoryStore) -> int:
        """Warm-start the models from a history database."""
        loaded = 0
        for function_name in store.function_names():
            for record in store.task_records(function_name=function_name):
                self._observe_record(record)
                loaded += 1
        self.update_models(force=True)
        return loaded

    def observe(self, record: TaskExecutionRecord) -> None:
        """Ingest a live execution record from the task monitor."""
        if not record.success:
            return
        self._add_sample(record)

    def _observe_record(self, record: TaskRecord) -> None:
        self._add_sample(record)

    def _add_sample(self, record) -> None:
        """Add one observation (live or historical record, same fields)."""
        features = (
            record.input_mb,
            float(record.cores_per_node),
            record.cpu_freq_ghz,
            record.ram_gb,
        )
        model = self._models[record.function_name]
        if model.add(features, record.execution_time_s, record.output_mb):
            # An untrained model predicts the running mean of its samples, so
            # every warm-up observation shifts its predictions.
            self.prediction_version += 1

    def update_models(self, force: bool = False) -> int:
        """(Re)train models that accumulated new observations.

        Called periodically by the engine so training never blocks the
        scheduling loop for long.  Returns the number of models retrained.
        """
        retrained = 0
        for model in self._models.values():
            if model.sample_count < self.min_samples_to_train:
                continue
            if force or model.needs_training():
                model.train()
                retrained += 1
        if retrained:
            self.prediction_version += 1
        return retrained

    # ------------------------------------------------------------- prediction
    def predict_execution_time(
        self,
        function_name: str,
        input_mb: float,
        hardware_features: Tuple[float, float, float],
        default: Optional[float] = None,
    ) -> Optional[float]:
        """Predicted execution time (seconds) of ``function_name``.

        ``hardware_features`` is ``(cores_per_node, cpu_freq_ghz, ram_gb)``
        of the candidate endpoint.  Returns ``default`` when the function has
        never been observed.
        """
        predicted = self._memoized(
            _FunctionModel.predict_time, function_name, input_mb, hardware_features
        )
        return default if predicted is None else predicted

    def predict_time_matrix(
        self,
        function_name: str,
        input_mb: np.ndarray,
        hardware: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Vectorized :meth:`predict_execution_time` over tasks × endpoints.

        Returns a ``(len(input_mb), len(hardware))`` matrix whose cells are
        bit-identical to the corresponding scalar calls, or ``None`` when the
        function has never been observed (callers apply their own fallback,
        exactly like the scalar ``default=None`` path).
        """
        model = self._models.get(function_name)
        if model is None:
            return None
        return model.predict_time_matrix(
            np.asarray(input_mb, dtype=float), np.asarray(hardware, dtype=float)
        )

    @property
    def rows_computed(self) -> int:
        """Rows of :meth:`predict_time_matrix` a trained forest was evaluated for."""
        return sum(model.rows_computed for model in self._models.values())

    @property
    def rows_reused(self) -> int:
        """Rows of :meth:`predict_time_matrix` gathered from a function's row table."""
        return sum(model.rows_reused for model in self._models.values())

    def predict_output_mb(
        self,
        function_name: str,
        input_mb: float,
        hardware_features: Tuple[float, float, float],
        default: float = 0.0,
    ) -> float:
        predicted = self._memoized(
            _FunctionModel.predict_output, function_name, input_mb, hardware_features
        )
        return default if predicted is None else predicted

    def _memoized(
        self,
        predictor: Callable[[_FunctionModel, Sequence[float]], Optional[float]],
        function_name: str,
        input_mb: float,
        hardware_features: Tuple[float, float, float],
    ) -> Optional[float]:
        """``predictor(model, features)`` (``None`` = no answer), through the memo."""
        model = self._models.get(function_name)
        if model is None:
            return None
        key = (predictor, function_name, input_mb, *hardware_features)
        cached = self._memo.get(key)
        if cached is not None and cached[1] == model.stamp:
            self.cache_hits += 1
            return cached[0]
        self.cache_misses += 1
        predicted = predictor(model, key[2:])
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[key] = (predicted, model.stamp)
        return predicted

    def sample_count(self, function_name: str) -> int:
        model = self._models.get(function_name)
        return model.sample_count if model else 0
