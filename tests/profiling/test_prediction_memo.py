"""The profilers' prediction memos answer exactly what an uncached call would.

The oracles below are the predictors as they were before the memo existed:
they read the models and compute from scratch.  Every memoized answer must
equal the oracle's with ``==`` on floats, across untrained -> trained
transitions, the reverse-pair fallback and bounded sample windows — and
whenever an answer changes, the ``prediction_version`` the scheduling caches
stamp with must have moved.
"""

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


@settings(max_examples=100, deadline=None)
@given(EXEC_OPS, st.sampled_from((None, 2, 5)))
def test_execution_memo_equals_uncached(ops, window):
    profiler = ExecutionProfiler(
        model_factory=lambda: RandomForestRegressor(n_estimators=2, max_depth=3),
        min_samples_to_train=3,
        max_samples_retained=window,
    )

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
