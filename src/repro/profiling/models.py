"""Regression models used by the profilers.

The paper uses random-forest regression for task execution times (citing
Pham et al. and Singh et al.), polynomial regression for transfer times, and
notes that the profilers are extensible to other models (XGBoost, Bayesian
linear regression).  scikit-learn is not available in this environment, so
the models the profilers use are implemented here directly on NumPy:

* :class:`DecisionTreeRegressor` — CART with variance-reduction splits;
* :class:`RandomForestRegressor` — bagged trees with feature subsampling;
* :class:`PolynomialRegression` — least-squares fit on polynomial features.

All models expose the same ``fit(X, y)`` / ``predict(X)`` interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "PolynomialRegression",
]


def _as_2d(X, n_features: Optional[int] = None) -> np.ndarray:
    """``X`` as a float matrix — of ``n_features`` columns when a fitted
    model's ``predict`` says how many it was fitted on."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"X must be 1- or 2-dimensional, got shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    return X


def _check_fitted(flag: bool) -> None:
    if not flag:
        raise RuntimeError("model must be fitted before calling predict()")


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor:
    """CART regression tree with mean-squared-error (variance) splits."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[int] = None,
        random_state: Optional[np.random.Generator] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = random_state if random_state is not None else np.random.default_rng(0)
        self._root: Optional[_TreeNode] = None
        self._flat: Optional[Tuple[np.ndarray, ...]] = None
        self.n_features_: int = 0

    # -------------------------------------------------------------------- fit
    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = _as_2d(X)
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y lengths differ")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        self._root = self._build(X, y, depth=0)
        self._flat = None
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        # ``np.mean`` and ``np.all`` without their Python wrappers (a forest
        # refit builds thousands of nodes): the same reduction, the same bits.
        node = _TreeNode(value=float(np.add.reduce(y) / len(y)))
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or (y == y[0]).all()
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> Optional[Tuple[int, float]]:
        """The split a position-by-position scan would pick, without the scan.

        The specification (kept as code in ``tests/reference/tree_fit.py``)
        scores every split position of every feature in turn and accepts a
        position when its score beats the best so far by more than ``1e-12``.
        A position the scan accepts scores below every position before it, so
        here all positions of a feature are scored as one array expression
        and only its strict prefix minima are handed to the scan's own
        arithmetic and acceptance test — a handful per feature.  The array
        scores merely *select*: they can differ from the scan's in the last
        bits (``x * x`` against the scalar ``x ** 2``), so the selection
        keeps every position within ``slack`` of the minimum before it, and
        what is accepted, and with which threshold, is decided by the scan's
        arithmetic alone.
        """
        n_samples, n_features = X.shape
        features = np.arange(n_features)
        if self.max_features is not None and self.max_features < n_features:
            features = self._rng.choice(n_features, size=self.max_features, replace=False)

        best_score = np.inf
        best: Optional[Tuple[int, float]] = None
        first, stop = self.min_samples_leaf - 1, n_samples - self.min_samples_leaf
        if stop <= first:
            return None
        total_sum = total_sq = slack = None

        for feature in features:
            column = X[:, feature]
            order = column.argsort(kind="stable")
            xs = column[order]
            # Split positions lie between distinct consecutive x values: none
            # in a constant column, one per endpoint boundary in a hardware
            # feature, nearly all in a continuous one.
            positions = (xs[first:stop] != xs[first + 1 : stop + 1]).nonzero()[0] + first
            if not positions.size:
                continue
            if total_sum is None:
                total_sum = y.sum()
                total_sq = (y**2).sum()
                # Each squared term is at most ``total_sq`` and off by an ulp
                # or two.
                slack = 32.0 * np.spacing(total_sq)
            ys = y[order]
            cum_sum = ys.cumsum()
            cum_sq = (ys**2).cumsum()
            left_sum, left_sq = cum_sum[positions], cum_sq[positions]
            right_sum = total_sum - left_sum
            n_left = positions + 1.0
            # Sum of squared errors on each side (variance * n).
            scores = (left_sq - left_sum * left_sum / n_left) + (
                (total_sq - left_sq) - right_sum * right_sum / (n_samples - n_left)
            )
            floor = np.fmin.accumulate(scores)
            floor[1:] = np.fmin(floor[:-1], best_score)
            floor[0] = best_score
            for i in positions[scores < floor + slack]:
                n_l = i + 1
                l_sum, l_sq = cum_sum[i], cum_sq[i]
                r_sum = total_sum - l_sum
                score = (l_sq - l_sum**2 / n_l) + ((total_sq - l_sq) - r_sum**2 / (n_samples - n_l))
                if score < best_score - 1e-12:
                    best_score = score
                    best = (int(feature), float((xs[i] + xs[i + 1]) / 2.0))
        return best

    # ---------------------------------------------------------------- predict
    def _compile(self) -> Tuple[np.ndarray, ...]:
        """Flatten the node tree into parallel arrays for batched traversal.

        Leaves keep ``feature == -1``; internal nodes point at their children
        by index.  Prediction then walks all rows level-synchronously with
        array ops instead of one Python loop per row — same comparisons,
        same leaves, bit-identical values.
        """
        feature: list = []
        threshold: list = []
        value: list = []
        left: list = []
        right: list = []

        def walk(node: _TreeNode) -> int:
            index = len(feature)
            feature.append(node.feature if not node.is_leaf else -1)
            threshold.append(node.threshold)
            value.append(node.value)
            left.append(-1)
            right.append(-1)
            if not node.is_leaf:
                left[index] = walk(node.left)
                right[index] = walk(node.right)
            return index

        walk(self._root)
        return (
            np.asarray(feature, dtype=np.intp),
            np.asarray(threshold, dtype=float),
            np.asarray(value, dtype=float),
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
        )

    def predict(self, X) -> np.ndarray:
        _check_fitted(self._root is not None)
        X = _as_2d(X, self.n_features_)
        if self._flat is None:
            self._flat = self._compile()
        feature, threshold, value, left, right = self._flat
        index = np.zeros(len(X), dtype=np.intp)
        active = np.nonzero(feature[index] >= 0)[0]
        while active.size:
            node = index[active]
            feat = feature[node]
            go_left = X[active, feat] <= threshold[node]
            index[active] = np.where(go_left, left[node], right[node])
            active = active[feature[index[active]] >= 0]
        return value[index]


class RandomForestRegressor:
    """Bagged ensemble of :class:`DecisionTreeRegressor` (the paper's default)."""

    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[str | int] = "sqrt",
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._trees: list[DecisionTreeRegressor] = []
        self.n_features_: int = 0

    def _resolve_max_features(self, n_features: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(int(self.max_features), n_features)

    def fit(self, X, y) -> "RandomForestRegressor":
        X = _as_2d(X)
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y lengths differ")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        tree_options = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(self.n_features_),
        )
        if (y == y[0]).all():
            # Every bootstrap sample of a constant target is ``n`` copies of
            # that value and every tree the single leaf ``sum(y) / n``: the
            # draws (from a generator local to this fit) would decide nothing.
            self._trees = [DecisionTreeRegressor(**tree_options).fit(X, y)] * self.n_estimators
            return self
        rng = np.random.default_rng(self.random_state)
        self._trees = []
        n = len(y)
        for _ in range(self.n_estimators):
            indices = rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                random_state=np.random.default_rng(rng.integers(0, 2**31 - 1)), **tree_options
            )
            tree.fit(X[indices], y[indices])
            self._trees.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        _check_fitted(bool(self._trees))
        X = _as_2d(X, self.n_features_)
        # Sequential accumulation over trees: unlike ``stack(...).mean(0)``,
        # whose pairwise reduction order depends on the batch shape, this is
        # per-element identical no matter how many rows are predicted at
        # once — batched and single-row calls agree bit for bit, which the
        # vectorized scheduling path's equivalence guarantee relies on.
        total = self._trees[0].predict(X)
        for tree in self._trees[1:]:
            total = total + tree.predict(X)
        return total / len(self._trees)


class PolynomialRegression:
    """Least-squares regression on polynomial features of the inputs.

    Features are expanded to all powers ``1..degree`` of each input column
    (no cross terms) plus an intercept, which matches how transfer time
    behaves: linear in size/bandwidth with mild curvature from protocol
    overheads.
    """

    def __init__(self, degree: int = 2, regularization: float = 1e-8) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.degree = degree
        self.regularization = regularization
        self._coef: Optional[np.ndarray] = None
        self.n_features_: int = 0

    def _design_matrix(self, X: np.ndarray) -> np.ndarray:
        columns = [np.ones(len(X))]
        for power in range(1, self.degree + 1):
            columns.append(X**power)
        return np.column_stack(
            [columns[0]] + [c for power_block in columns[1:] for c in power_block.T]
        )

    def fit(self, X, y) -> "PolynomialRegression":
        X = _as_2d(X)
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise ValueError("X and y lengths differ")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        A = self._design_matrix(X)
        # Ridge-regularised normal equations keep the fit stable when the
        # training set is tiny (e.g. right after probing transfers).
        ata = A.T @ A + self.regularization * np.eye(A.shape[1])
        atb = A.T @ y
        self._coef = np.linalg.solve(ata, atb)
        return self

    def predict(self, X) -> np.ndarray:
        _check_fitted(self._coef is not None)
        X = _as_2d(X, self.n_features_)
        return self._design_matrix(X) @ self._coef

