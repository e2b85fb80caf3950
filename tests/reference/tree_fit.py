"""Executable specifications of the tree and forest fitters.

``best_split_loop`` is the split search as it shipped before it was
vectorised: every candidate position of every feature scored in turn, and a
position accepted when it beats the best so far by more than ``1e-12``.  The
product (``repro.profiling.models``) scores all positions of a feature as one
array expression and must return the same ``(feature, threshold)`` — and
therefore grow the same trees — for any input.

``forest_fit_bootstrap`` is the forest fit as it shipped before constant
targets skipped the bootstrap: every tree, whatever the target, grown on its
own resample with its own generator.  The product must end up with the same
trees.  ``tests/profiling/test_tree_fit.py`` holds it to both with ``==``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np

from repro.profiling.models import DecisionTreeRegressor, RandomForestRegressor


def best_split_loop(
    tree: DecisionTreeRegressor, X: np.ndarray, y: np.ndarray
) -> Optional[Tuple[int, float]]:
    n_samples, n_features = X.shape
    features = np.arange(n_features)
    if tree.max_features is not None and tree.max_features < n_features:
        features = tree._rng.choice(n_features, size=tree.max_features, replace=False)

    best_score = np.inf
    best: Optional[Tuple[int, float]] = None
    total_sum = y.sum()
    total_sq = (y**2).sum()

    for feature in features:
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        # Candidate split positions: between distinct consecutive x values.
        cum_sum = np.cumsum(ys)
        cum_sq = np.cumsum(ys**2)
        for i in range(tree.min_samples_leaf - 1, n_samples - tree.min_samples_leaf):
            if xs[i] == xs[i + 1]:
                continue
            n_left = i + 1
            n_right = n_samples - n_left
            left_sum, left_sq = cum_sum[i], cum_sq[i]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            # Sum of squared errors on each side (variance * n).
            sse_left = left_sq - left_sum**2 / n_left
            sse_right = right_sq - right_sum**2 / n_right
            score = sse_left + sse_right
            if score < best_score - 1e-12:
                best_score = score
                best = (int(feature), float((xs[i] + xs[i + 1]) / 2.0))
    return best


@contextmanager
def loop_form_split():
    """Every tree fitted inside the block searches its splits with the loop."""
    shipped = DecisionTreeRegressor._best_split
    DecisionTreeRegressor._best_split = best_split_loop
    try:
        yield
    finally:
        DecisionTreeRegressor._best_split = shipped


def forest_fit_bootstrap(
    forest: RandomForestRegressor, X: np.ndarray, y: np.ndarray
) -> RandomForestRegressor:
    """``forest.fit(X, y)`` with every tree bootstrapped, constant target or not."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    forest.n_features_ = X.shape[1]
    rng = np.random.default_rng(forest.random_state)
    max_features = forest._resolve_max_features(forest.n_features_)
    forest._trees = []
    n = len(y)
    for _ in range(forest.n_estimators):
        indices = rng.integers(0, n, size=n)
        tree = DecisionTreeRegressor(
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=max_features,
            random_state=np.random.default_rng(rng.integers(0, 2**31 - 1)),
        )
        tree.fit(X[indices], y[indices])
        forest._trees.append(tree)
    return forest
