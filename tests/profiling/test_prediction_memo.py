"""The profilers' prediction memos answer exactly what an uncached call would.

The oracles below are the predictors as they were before the memo existed:
they read the models and compute from scratch.  Every memoized answer must
equal the oracle's with ``==`` on floats, across untrained -> trained
transitions, the reverse-pair fallback and bounded sample windows — and
whenever an answer changes, the ``prediction_version`` the scheduling caches
stamp with must have moved.  The same holds for the rows
``predict_time_matrix`` gathers from each function model's value-keyed table.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import execution, transfer
from repro.profiling.execution import ExecutionProfiler
from repro.profiling.models import RandomForestRegressor
from repro.profiling.transfer import TransferProfiler

from tests.profiling.test_profilers import QIMING_HW, TAIYI_HW, exec_record, transfer_result

ENDPOINTS = ("a", "b", "c")
SIZES = (0.0, 1.0, 10.0, 96.0, 250.5)
PAIRS = st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS))


# ----------------------------------------------------------------- transfer
def uncached_transfer_time(profiler, src, dst, size_mb, concurrency=1):
    if src == dst or size_mb <= 0:
        return 0.0
    model = profiler._pairs.get((src, dst))
    if model is not None:
        predicted = model.predict(size_mb, float(concurrency))
        if predicted is not None:
            return predicted
    reverse = profiler._pairs.get((dst, src))
    if reverse is not None:
        predicted = reverse.predict(size_mb, float(concurrency))
        if predicted is not None:
            return predicted
    return size_mb / profiler.default_bandwidth_mbps


TRANSFER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("seed"), PAIRS, st.sampled_from((5.0, 40.0, 125.0))),
        st.tuples(
            st.just("observe"),
            PAIRS,
            st.sampled_from(SIZES),
            st.sampled_from((1, 2, 4)),
            st.floats(min_value=0.01, max_value=50.0),
        ),
        st.tuples(st.just("update")),
        st.tuples(st.just("predict"), PAIRS, st.sampled_from(SIZES), st.sampled_from((1, 2, 4))),
    ),
    max_size=40,
)

TRANSFER_PROBES = [
    (src, dst, size, concurrency)
    for src in ENDPOINTS
    for dst in ENDPOINTS
    for size in (10.0, 96.0)
    for concurrency in (1, 4)
]


@settings(max_examples=150, deadline=None)
@given(TRANSFER_OPS)
def test_transfer_memo_equals_uncached(ops):
    profiler = TransferProfiler(min_samples_to_train=3)
    memoizable = 0
    for op in ops:
        before = [uncached_transfer_time(profiler, *probe) for probe in TRANSFER_PROBES]
        version = profiler.prediction_version
        if op[0] == "seed":
            (src, dst), bandwidth = op[1], op[2]
            if src != dst:
                profiler.seed_bandwidth(src, dst, bandwidth)
        elif op[0] == "observe":
            (src, dst), size, concurrency, duration = op[1:]
            if src != dst:
                profiler.observe(
                    transfer_result(src=src, dst=dst, size=size, duration=duration), concurrency
                )
        elif op[0] == "update":
            profiler.update_models()
        else:
            (src, dst), size, concurrency = op[1:]
            expected = uncached_transfer_time(profiler, src, dst, size, concurrency)
            # Twice: the second call is served from the memo.
            assert profiler.predict_transfer_time(src, dst, size, concurrency) == expected
            assert profiler.predict_transfer_time(src, dst, size, concurrency) == expected
            if src != dst and size > 0:
                memoizable += 2
        after = [uncached_transfer_time(profiler, *probe) for probe in TRANSFER_PROBES]
        if after != before:
            assert profiler.prediction_version != version
    assert profiler.cache_hits + profiler.cache_misses == memoizable
    assert profiler.cache_hits >= memoizable // 2
    assert len(profiler._memo) <= transfer._MEMO_CAP


def test_trained_pair_observation_keeps_version_and_entries():
    profiler = TransferProfiler(min_samples_to_train=3)
    profiler.seed_bandwidth("a", "b", 100.0)
    profiler.update_models()
    first = profiler.predict_transfer_time("a", "b", 96.0)
    version, misses = profiler.prediction_version, profiler.cache_misses
    # A trained pair predicts from its coefficients until the next retrain.
    profiler.observe(transfer_result(src="a", dst="b", size=96.0, duration=9.0))
    assert profiler.prediction_version == version
    assert profiler.predict_transfer_time("a", "b", 96.0) == first
    assert profiler.cache_misses == misses
    # An untrained pair's estimate shifts with every sample: other links'
    # entries survive, the reverse lookup through the new pair does not.
    profiler.observe(transfer_result(src="c", dst="a", size=10.0, duration=1.0))
    assert profiler.prediction_version == version + 1
    assert profiler.predict_transfer_time("a", "b", 96.0) == first
    assert profiler.cache_misses == misses
    assert profiler.predict_transfer_time("a", "c", 10.0) == 1.0
    profiler.update_models()
    assert profiler.predict_transfer_time("a", "b", 96.0) == uncached_transfer_time(
        profiler, "a", "b", 96.0
    )
    assert profiler.cache_misses == misses + 2


def test_transfer_memo_is_bounded():
    profiler = TransferProfiler()
    for size in range(1, transfer._MEMO_CAP + 50):
        profiler.predict_transfer_time("a", "b", float(size))
    assert len(profiler._memo) <= transfer._MEMO_CAP


# ---------------------------------------------------------------- execution
def uncached_execution_time(profiler, function_name, input_mb, hardware, default=None):
    model = profiler._models.get(function_name)
    if model is None:
        return default
    predicted = model.predict_time((input_mb, *hardware))
    return default if predicted is None else predicted


def uncached_output_mb(profiler, function_name, input_mb, hardware, default=0.0):
    model = profiler._models.get(function_name)
    if model is None:
        return default
    predicted = model.predict_output((input_mb, *hardware))
    return default if predicted is None else predicted


FUNCTIONS = ("f", "g")
HARDWARE = (QIMING_HW, TAIYI_HW)
EXEC_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from(FUNCTIONS),
            st.sampled_from(SIZES),
            st.sampled_from(HARDWARE),
            st.floats(min_value=0.1, max_value=500.0),
            st.floats(min_value=0.0, max_value=64.0),
        ),
        st.tuples(st.just("update")),
        st.tuples(
            st.just("time"),
            st.sampled_from(FUNCTIONS),
            st.sampled_from(SIZES),
            st.sampled_from(HARDWARE),
            st.sampled_from((None, 1.0)),
        ),
        st.tuples(
            st.just("output"),
            st.sampled_from(FUNCTIONS),
            st.sampled_from(SIZES),
            st.sampled_from(HARDWARE),
            st.sampled_from((0.0, 3.0)),
        ),
    ),
    max_size=40,
)

EXEC_PROBES = [(fn, size, hw) for fn in FUNCTIONS for size in (1.0, 96.0) for hw in HARDWARE]


def small_forests():
    """Patch in forests smaller than the product's, so many examples run fast."""
    return mock.patch.object(
        execution, "_new_model", lambda: RandomForestRegressor(n_estimators=2, max_depth=3)
    )


@settings(max_examples=100, deadline=None)
@given(EXEC_OPS, st.sampled_from((None, 2, 5)))
def test_execution_memo_equals_uncached(ops, window):
    with small_forests():
        check_execution_memo_equals_uncached(ops, window)


def check_execution_memo_equals_uncached(ops, window):
    profiler = ExecutionProfiler(min_samples_to_train=3)
    profiler.max_samples_retained = window

    def probe_all():
        return [
            (uncached_execution_time(profiler, *probe), uncached_output_mb(profiler, *probe))
            for probe in EXEC_PROBES
        ]

    memoizable = 0
    for op in ops:
        before = probe_all()
        version = profiler.prediction_version
        if op[0] == "observe":
            _, fn, size, hw, duration, output_mb = op
            profiler.observe(
                exec_record(fn=fn, input_mb=size, hw=hw, duration=duration, output_mb=output_mb)
            )
        elif op[0] == "update":
            profiler.update_models()
        else:
            kind, fn, size, hw, default = op
            if kind == "time":
                ask, oracle = profiler.predict_execution_time, uncached_execution_time
            else:
                ask, oracle = profiler.predict_output_mb, uncached_output_mb
            expected = oracle(profiler, fn, size, hw, default)
            assert ask(fn, size, hw, default=default) == expected
            assert ask(fn, size, hw, default=default) == expected
            if fn in profiler._models:
                memoizable += 2
        if probe_all() != before:
            assert profiler.prediction_version != version
    assert profiler.cache_hits + profiler.cache_misses == memoizable
    assert profiler.cache_hits >= memoizable // 2
    assert len(profiler._memo) <= execution._MEMO_CAP


def test_one_functions_samples_leave_the_others_entries_valid():
    profiler = ExecutionProfiler(min_samples_to_train=100)
    profiler.observe(exec_record(fn="f", duration=10.0))
    profiler.observe(exec_record(fn="g", duration=30.0))
    assert profiler.predict_execution_time("f", 10.0, QIMING_HW) == 10.0
    misses = profiler.cache_misses
    profiler.observe(exec_record(fn="g", duration=50.0))  # g's running mean shifts
    assert profiler.predict_execution_time("f", 10.0, QIMING_HW) == 10.0
    assert profiler.cache_misses == misses
    assert profiler.predict_execution_time("g", 10.0, QIMING_HW) == 40.0
    assert profiler.cache_misses == misses + 1


# --------------------------------------------------- execution, whole rows
def uncached_time_matrix(profiler, function_name, input_mb, hardware):
    """``predict_time_matrix`` without the row table: every call asks the model."""
    model = profiler._models.get(function_name)
    if model is None:
        return None
    input_mb = np.asarray(input_mb, dtype=float)
    hardware = np.asarray(hardware, dtype=float)
    if model.trained_on == 0:
        if not model.samples:
            return None
        mean = float(np.mean([r[1] for r in model.samples]))
        return np.full((len(input_mb), len(hardware)), mean)
    if not len(input_mb):
        # No row asked, none put to the model (which is why an empty query
        # with a hardware matrix of the wrong width is not an error).
        return np.empty((0, len(hardware)))
    unique, inverse = np.unique(input_mb, return_inverse=True)
    X = np.empty((len(unique) * len(hardware), 1 + hardware.shape[1]))
    X[:, 0] = np.repeat(unique, len(hardware))
    X[:, 1:] = np.tile(hardware, (len(unique), 1))
    predictions = np.maximum(0.0, model.time_model.predict(X))
    return predictions.reshape(len(unique), len(hardware))[inverse]


def outcome(call):
    """The matrix, ``None``, or the typed error of a wrong-width query."""
    try:
        return call()
    except ValueError as error:
        return str(error)


def same_outcome(left, right):
    if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
        return left.shape == right.shape and bool((left == right).all())
    return not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray) and left == right


PAIR_HW = np.array([QIMING_HW, TAIYI_HW])  # (2, 3)
TRIO_HW = np.array([TAIYI_HW, QIMING_HW, (8.0, 3.0, 32.0)])  # (3, 3)
#: The bytes of ``PAIR_HW`` as three endpoints of two features: a table keyed
#: on the bytes alone would answer it with ``PAIR_HW``'s two-endpoint rows.
RESHAPED_HW = PAIR_HW.reshape(3, 2)
HARDWARE_MATRICES = (PAIR_HW, TRIO_HW, RESHAPED_HW)

MATRIX_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from(FUNCTIONS),
            st.sampled_from(SIZES),
            st.sampled_from(HARDWARE),
            st.floats(min_value=0.1, max_value=500.0),
        ),
        st.tuples(st.just("update")),
        st.tuples(
            st.just("matrix"),
            st.sampled_from(FUNCTIONS),
            st.lists(st.sampled_from(SIZES + (-0.0,)), max_size=6),
            st.sampled_from(range(len(HARDWARE_MATRICES))),
        ),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(MATRIX_OPS, st.sampled_from((None, 2, 5)))
def test_time_matrix_rows_equal_uncached(ops, window):
    with small_forests():
        check_time_matrix_rows_equal_uncached(ops, window)


def check_time_matrix_rows_equal_uncached(ops, window):
    profiler = ExecutionProfiler(min_samples_to_train=3)
    profiler.max_samples_retained = window
    # "f" starts trained, so most sequences retrain it under a filled table;
    # "g" goes through unknown -> running mean -> trained inside the sequence.
    for size, duration in ((1.0, 10.0), (96.0, 40.0), (250.5, 90.0)):
        profiler.observe(exec_record(fn="f", input_mb=size, duration=duration))
    profiler.update_models()
    asked = 0
    for op in ops:
        if op[0] == "observe":
            _, fn, size, hw, duration = op
            profiler.observe(exec_record(fn=fn, input_mb=size, hw=hw, duration=duration))
        elif op[0] == "update":
            profiler.update_models()
        else:
            _, fn, sizes, which = op
            hardware = HARDWARE_MATRICES[which]
            expected = outcome(lambda: uncached_time_matrix(profiler, fn, sizes, hardware))
            for _ in range(2):  # the second call gathers every row from the table
                answer = outcome(lambda: profiler.predict_time_matrix(fn, sizes, hardware))
                assert same_outcome(answer, expected)
                if isinstance(answer, np.ndarray):
                    # Handed out fresh: scribbling on it changes no later answer.
                    answer[...] = -1.0
                    if profiler._models[fn].trained_on:
                        asked += len(sizes)
    assert profiler.rows_computed + profiler.rows_reused == asked
    assert profiler.rows_reused >= asked // 2
    for model in profiler._models.values():
        assert len(model._rows) <= execution._MEMO_CAP


class _AnyWidthModel:
    """Fits nothing and predicts the row sum, whatever the width."""

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.asarray(X, dtype=float).sum(axis=1)


def test_row_table_tells_apart_hardware_of_equal_bytes(monkeypatch):
    monkeypatch.setattr(execution, "_new_model", _AnyWidthModel)
    profiler = ExecutionProfiler(min_samples_to_train=1)
    profiler.observe(exec_record(fn="f"))
    profiler.update_models()
    assert PAIR_HW.tobytes() == RESHAPED_HW.tobytes()
    for hardware in (PAIR_HW, RESHAPED_HW, PAIR_HW):
        answer = profiler.predict_time_matrix("f", [1.0, 96.0], hardware)
        assert same_outcome(answer, uncached_time_matrix(profiler, "f", [1.0, 96.0], hardware))
    assert (profiler.rows_computed, profiler.rows_reused) == (4, 2)


def test_a_wrong_width_hardware_matrix_is_refused_not_cached():
    profiler = ExecutionProfiler(min_samples_to_train=3)
    for duration in (10.0, 20.0, 30.0):
        profiler.observe(exec_record(fn="f", duration=duration))
    profiler.update_models()
    with pytest.raises(ValueError, match="expected 4 features, got 3"):
        profiler.predict_time_matrix("f", [10.0], RESHAPED_HW)
    assert not profiler._models["f"]._rows
    assert same_outcome(
        profiler.predict_time_matrix("f", [10.0], PAIR_HW),
        uncached_time_matrix(profiler, "f", [10.0], PAIR_HW),
    )


def test_a_retrain_of_one_function_leaves_the_others_rows_alone():
    profiler = ExecutionProfiler(min_samples_to_train=3)
    for fn in ("f", "g"):
        for duration in (10.0, 20.0, 30.0):
            profiler.observe(exec_record(fn=fn, duration=duration))
    profiler.update_models()
    for fn in ("f", "g"):
        profiler.predict_time_matrix(fn, [1.0, 96.0, 1.0], PAIR_HW)
    assert (profiler.rows_computed, profiler.rows_reused) == (4, 2)
    profiler.observe(exec_record(fn="f", duration=99.0))
    assert profiler.update_models() == 1  # f alone
    assert not profiler._models["f"]._rows and len(profiler._models["g"]._rows) == 2
    profiler.predict_time_matrix("g", [96.0, 1.0], PAIR_HW)
    assert (profiler.rows_computed, profiler.rows_reused) == (4, 4)
    answer = profiler.predict_time_matrix("f", [96.0, 1.0], PAIR_HW)
    assert (profiler.rows_computed, profiler.rows_reused) == (6, 4)
    assert same_outcome(answer, uncached_time_matrix(profiler, "f", [96.0, 1.0], PAIR_HW))


def test_row_table_is_bounded():
    profiler = ExecutionProfiler(min_samples_to_train=1)
    profiler.observe(exec_record(fn="f"))
    profiler.update_models()
    sizes = np.arange(float(execution._MEMO_CAP + 50))
    for chunk in np.array_split(sizes, 40):
        profiler.predict_time_matrix("f", chunk, PAIR_HW)
    assert 0 < len(profiler._models["f"]._rows) <= execution._MEMO_CAP
