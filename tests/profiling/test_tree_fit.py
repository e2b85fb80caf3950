"""The vectorised split search grows the trees the loop-form search grows,
and a forest that skips the bootstrap of a constant target is the forest
that drew it.

``==`` throughout: same ``(feature, threshold)`` for any node's data, same
draws from the tree's RNG, same flattened trees, same predictions from whole
forests.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.models import DecisionTreeRegressor, RandomForestRegressor

from tests.reference.tree_fit import best_split_loop, forest_fit_bootstrap, loop_form_split


@st.composite
def datasets(draw, max_rows=48):
    """Rows with heavy ties in x and in y (the skipped positions and the
    1e-12 tie-break), at magnitudes from 1e-3 to 1e6."""
    rows = draw(st.integers(min_value=2, max_value=max_rows))
    columns = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    levels = draw(st.sampled_from([2, 3, 8, 1000]))
    scale = draw(st.sampled_from([1e-3, 1.0, 37.5, 1e6]))
    noise = draw(st.sampled_from([0.0, 1e-9, 0.1]))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(rows, columns)).astype(float) * scale
    y = rng.integers(0, levels, size=rows).astype(float) * scale
    y = y + noise * rng.normal(size=rows)
    return X, y


tree_shapes = st.tuples(
    st.integers(min_value=1, max_value=3),  # min_samples_leaf
    st.sampled_from([None, 1, 2]),  # max_features
    st.integers(min_value=0, max_value=1000),  # tree seed
)


@settings(max_examples=400, deadline=None)
@given(data=datasets(), shape=tree_shapes)
def test_same_split_as_the_loop(data, shape):
    X, y = data
    leaf, max_features, seed = shape
    trees = [
        DecisionTreeRegressor(
            min_samples_leaf=leaf,
            max_features=max_features,
            random_state=np.random.default_rng(seed),
        )
        for _ in range(2)
    ]
    assert trees[0]._best_split(X, y) == best_split_loop(trees[1], X, y)
    # ... having drawn the same features: the generators are still in step.
    assert trees[0]._rng.random() == trees[1]._rng.random()


@settings(max_examples=40, deadline=None)
@given(data=datasets(max_rows=120), seed=st.integers(min_value=0, max_value=1000))
def test_same_forest_as_the_loop(data, seed):
    X, y = data
    forest = RandomForestRegressor(n_estimators=5, random_state=seed).fit(X, y)
    with loop_form_split():
        reference = RandomForestRegressor(n_estimators=5, random_state=seed).fit(X, y)
    probes = np.vstack([X, X + 0.5 * (X.max() - X.min() + 1.0)])
    assert (forest.predict(probes) == reference.predict(probes)).all()


@st.composite
def profiler_shaped_datasets(draw):
    """What a profiler refit sees: one to three distinct rows of X (one per
    endpoint's hardware) and a target that is constant (a zero-output
    function), two-valued, rounded or continuous."""
    rows = draw(st.integers(min_value=1, max_value=96))
    columns = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    distinct = rng.uniform(0.0, 200.0, size=(draw(st.integers(min_value=1, max_value=3)), columns))
    X = distinct[rng.integers(0, len(distinct), size=rows)]
    target = draw(st.sampled_from(["constant", "zero", "two-valued", "rounded", "continuous"]))
    if target == "constant":
        y = np.full(rows, float(rng.uniform(0.0, 64.0)))
    elif target == "zero":
        y = np.zeros(rows)
    elif target == "two-valued":
        y = rng.integers(0, 2, size=rows) * 12.5
    elif target == "rounded":
        y = np.round(rng.uniform(0.0, 3.0, size=rows), 1)
    else:
        y = rng.uniform(0.0, 500.0, size=rows)
    return X, y


@settings(max_examples=400, deadline=None)
@given(
    data=profiler_shaped_datasets(),
    seed=st.integers(min_value=0, max_value=1000),
    max_features=st.sampled_from(["sqrt", None, 1]),
)
def test_same_forest_as_the_bootstrap_of_every_tree(data, seed, max_features):
    X, y = data
    options = dict(n_estimators=4, max_depth=4, max_features=max_features, random_state=seed)
    forest = RandomForestRegressor(**options).fit(X, y)
    reference = forest_fit_bootstrap(RandomForestRegressor(**options), X, y)
    assert len(forest._trees) == len(reference._trees)
    for tree, expected in zip(forest._trees, reference._trees):
        for flat, flat_expected in zip(tree._compile(), expected._compile()):
            assert flat.dtype == flat_expected.dtype
            assert (flat == flat_expected).all()
    probes = np.vstack([X, X + 1.0, np.zeros((1, X.shape[1]))])
    assert (forest.predict(probes) == reference.predict(probes)).all()

