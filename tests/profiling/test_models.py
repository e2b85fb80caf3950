"""Tests for the from-scratch regression models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.models import (
    BayesianLinearRegression,
    DecisionTreeRegressor,
    PolynomialRegression,
    RandomForestRegressor,
)


def linear_dataset(n=200, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 3))
    y = 2.0 * X[:, 0] + 0.5 * X[:, 1] - 1.0 * X[:, 2] + 3.0
    if noise:
        y = y + rng.normal(0, noise, size=n)
    return X, y


def step_dataset(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 2))
    y = np.where(X[:, 0] < 5.0, 1.0, 10.0)
    return X, y


class TestDecisionTree:
    def test_fits_piecewise_constant_function(self):
        X, y = step_dataset()
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        pred_low = tree.predict([[2.0, 5.0]])[0]
        pred_high = tree.predict([[8.0, 5.0]])[0]
        assert pred_low == pytest.approx(1.0, abs=0.5)
        assert pred_high == pytest.approx(10.0, abs=0.5)

    def test_constant_target(self):
        X = np.arange(10).reshape(-1, 1)
        y = np.full(10, 7.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict([[3.0]])[0] == pytest.approx(7.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit([[1.0], [2.0]], [1.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_1d_input_accepted(self):
        X = np.linspace(0, 10, 50)
        y = np.where(X < 5, 0.0, 1.0)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert tree.predict([2.0])[0] == pytest.approx(0.0, abs=0.2)


class TestRandomForest:
    def test_reduces_to_reasonable_fit_on_linear_data(self):
        X, y = linear_dataset(noise=0.5)
        forest = RandomForestRegressor(n_estimators=10, max_depth=8).fit(X, y)
        pred = forest.predict(X)
        rmse = np.sqrt(np.mean((pred - y) ** 2))
        assert rmse < 2.5

    def test_interpolates_hardware_like_features(self):
        # Mimic the execution profiler's use: duration depends on input size
        # and inversely on a "speed" feature.
        rng = np.random.default_rng(1)
        size = rng.uniform(1, 100, 400)
        speed = rng.choice([1.0, 1.25, 1.45], 400)
        y = 10.0 * size / speed
        X = np.column_stack([size, speed])
        forest = RandomForestRegressor(n_estimators=10, max_depth=10).fit(X, y)
        fast = forest.predict([[50.0, 1.45]])[0]
        slow = forest.predict([[50.0, 1.0]])[0]
        assert fast < slow

    def test_deterministic_given_seed(self):
        X, y = linear_dataset(noise=1.0)
        a = RandomForestRegressor(n_estimators=5, random_state=3).fit(X, y).predict(X[:10])
        b = RandomForestRegressor(n_estimators=5, random_state=3).fit(X, y).predict(X[:10])
        assert np.allclose(a, b)

    def test_invalid_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict([[1.0]])

    def test_max_features_int(self):
        X, y = linear_dataset(n=50)
        forest = RandomForestRegressor(n_estimators=3, max_features=2).fit(X, y)
        assert forest.predict(X[:5]).shape == (5,)


class TestPolynomialRegression:
    def test_exact_fit_on_quadratic(self):
        x = np.linspace(1, 10, 30).reshape(-1, 1)
        y = 3.0 + 2.0 * x[:, 0] + 0.5 * x[:, 0] ** 2
        model = PolynomialRegression(degree=2).fit(x, y)
        assert model.predict([[4.0]])[0] == pytest.approx(3.0 + 8.0 + 8.0, rel=1e-3)

    def test_transfer_time_shape(self):
        # duration = size / (bw / concurrency) is linear in size and concurrency*size;
        # a degree-2 polynomial without cross terms still tracks the trend.
        rng = np.random.default_rng(0)
        size = rng.uniform(10, 1000, 200)
        conc = rng.integers(1, 5, 200).astype(float)
        duration = size * conc / 90.0 + 2.0
        X = np.column_stack([size, conc])
        model = PolynomialRegression(degree=2).fit(X, duration)
        small = model.predict([[100.0, 1.0]])[0]
        large = model.predict([[800.0, 1.0]])[0]
        assert large > small

    def test_feature_count_checked(self):
        model = PolynomialRegression().fit([[1.0, 2.0]] * 4, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            model.predict([[1.0]])

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            PolynomialRegression(degree=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PolynomialRegression().predict([[1.0]])


class TestBayesianLinearRegression:
    def test_recovers_linear_relationship(self):
        X, y = linear_dataset(noise=0.1)
        model = BayesianLinearRegression(alpha=1e-3, beta=100.0).fit(X, y)
        pred = model.predict([[1.0, 2.0, 3.0]])[0]
        assert pred == pytest.approx(2.0 + 1.0 - 3.0 + 3.0, abs=0.3)

    def test_uncertainty_grows_away_from_data(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = 2 * X[:, 0]
        model = BayesianLinearRegression().fit(X, y)
        _, std_near = model.predict([[0.5]], return_std=True)
        _, std_far = model.predict([[100.0]], return_std=True)
        assert std_far[0] > std_near[0]

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression(alpha=0)
        with pytest.raises(ValueError):
            BayesianLinearRegression(beta=-1)


class TestFeatureCountChecked:
    """A query of another width than the fit is a typed error in every model:
    a forest used to answer a too-wide one silently (reading the columns it
    knew) and a too-narrow one with a bare ``IndexError``."""

    MODELS = [
        lambda: DecisionTreeRegressor(max_depth=3),
        lambda: RandomForestRegressor(n_estimators=3, max_depth=3),
        # A constant target is fitted without a bootstrap; same check.
        lambda: RandomForestRegressor(n_estimators=3, max_depth=3).fit(np.ones((6, 4)), np.ones(6)),
        lambda: PolynomialRegression(),
        lambda: BayesianLinearRegression(),
    ]

    @pytest.mark.parametrize("build", MODELS)
    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_wrong_width_is_a_value_error(self, build, width):
        model = build()
        if not model.n_features_:
            rng = np.random.default_rng(3)
            model.fit(rng.uniform(0, 10, size=(12, 4)), rng.uniform(0, 5, size=12))
        assert model.predict(np.ones((2, 4))).shape == (2,)
        with pytest.raises(ValueError, match=f"expected 4 features, got {width}"):
            model.predict(np.ones((2, width)))

    def test_a_flat_row_is_one_feature_per_sample(self):
        # 1-D input means samples of a single feature, so a single 4-feature
        # sample passed flat is refused instead of read as four samples.
        forest = RandomForestRegressor(n_estimators=2).fit(np.ones((6, 4)), np.arange(6.0))
        with pytest.raises(ValueError, match="expected 4 features, got 1"):
            forest.predict([1.0, 2.0, 3.0, 4.0])


class TestModelProperties:
    @given(
        st.integers(min_value=10, max_value=60),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_tree_predictions_within_target_range(self, n, spread):
        rng = np.random.default_rng(42)
        X = rng.uniform(0, 10, size=(n, 2))
        y = rng.uniform(0, spread, size=n)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        pred = tree.predict(X)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    @given(st.integers(min_value=5, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_forest_prediction_shape(self, n):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(max(n, 5), 3))
        y = rng.uniform(0, 1, size=max(n, 5))
        forest = RandomForestRegressor(n_estimators=3, max_depth=3).fit(X, y)
        assert forest.predict(X).shape == (len(X),)
