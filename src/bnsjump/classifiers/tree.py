"""Decision trees with value thresholds and order-based routing.

Split thresholds are actual training feature values and routing uses
``x <= threshold``, so predictions are invariant under any strictly
increasing per-feature transform applied consistently to train and test
data.  One grower and router, ``_Tree``, backs the Gini classification tree
and the squared-error regression tree used by gradient boosting; each holds
its criterion in ``_leaf`` (the node's value, and the total its split search
reads, or None when the node stays a leaf) and ``_split`` (the best cut, or
None).
"""

from __future__ import annotations

import numpy as np


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = 0          # leaf label (classification) or leaf value (regression)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _route(node: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray):
    if node.is_leaf:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] <= node.threshold
    _route(node.left, X, idx[mask], out)
    _route(node.right, X, idx[~mask], out)


def _presort(X: np.ndarray) -> np.ndarray:
    """Row order of every feature, ``d x n``; stable, so tied values keep row order."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _partition(X, idx, order, feature, threshold):
    """Children ``(idx, order)`` of a node split on ``x <= threshold``.

    Both partitions are stable: ``idx`` stays ascending and every row of
    ``order`` stays sorted by its feature, so a child's order rows equal a
    fresh stable argsort of the child's rows and no node sorts again.
    """
    mask = X[idx, feature] <= threshold
    goes_left = np.zeros(len(X), dtype=bool)
    goes_left[idx[mask]] = True
    flat = order.ravel()
    sel = goes_left[flat]
    d, n_left = order.shape[0], int(mask.sum())
    return ((idx[mask], flat.compress(sel).reshape(d, n_left)),
            (idx[~mask], flat.compress(~sel).reshape(d, idx.size - n_left)))


def _first_best(scores, valid, xs, features):
    """(score, feature, threshold) of the lowest valid score over all features, or None.

    Features are visited in order and a later one must beat the incumbent
    by more than 1e-12, so near-ties resolve to the lowest feature.  Each
    feature's lowest score and its threshold are taken in one fancy index,
    and the pick walks them as Python floats (``tolist`` keeps -0.0).
    """
    if scores.shape[1] == 0:  # a single-row node has no cut
        return None
    rows = valid.any(axis=1).nonzero()[0]
    pick = scores.argmin(axis=1)[rows]
    best = None
    for score, r, x in zip(scores[rows, pick].tolist(), rows.tolist(), xs[rows, pick].tolist()):
        if best is None or score < best[0] - 1e-12:
            best = (score, r, x)
    return None if best is None else (best[0], int(features[best[1]]), best[2])


def _valid_cuts(xs, k, n, min_leaf):
    """Candidate cut after sorted position p, with ``k`` rows up to it: distinct
    neighbours and both sides >= min_leaf.  Returns ``(n - k, valid)``."""
    rk = n - k
    return rk, (xs[:, 1:] != xs[:, :-1]) & ((k >= min_leaf) & (rk >= min_leaf))


def _best_gini_split(X, w, wy, order, n, features, min_leaf):
    """Best (impurity, feature, threshold) over candidate features, or None.

    Every candidate feature is scored in one 2-D pass over its presorted
    rows.  Row r stands for ``w[r]`` drawn copies and ``wy = w * y``, so
    the running counts are the integers a pass over the drawn copies
    gives at every cut between distinct values, and so is every score.
    Candidate positions are boundaries between distinct sorted values; the
    weighted Gini depends only on the label partition, so ties resolve
    identically under any order-preserving transform.
    """
    rows = order[features]
    xs = X[rows, features[:, None]]
    ys = wy[rows]
    k = np.cumsum(w[rows], axis=1)[:, :-1].astype(float)
    left_ones = np.cumsum(ys, axis=1)[:, :-1].astype(float)
    right_ones = float(ys[0].sum()) - left_ones
    rk, valid = _valid_cuts(xs, k, n, min_leaf)
    gini_l = 1.0 - (left_ones / k) ** 2 - ((k - left_ones) / k) ** 2
    gini_r = 1.0 - (right_ones / rk) ** 2 - ((rk - right_ones) / rk) ** 2
    weighted = np.where(valid, (k * gini_l + rk * gini_r) / n, np.inf)
    return _first_best(weighted, valid, xs, features)


class _Tree:
    """The grower and router of both trees.  ``stats`` is the pair of
    per-row arrays a criterion reads; ``value_dtype`` is its predictions'."""

    value_dtype = float

    def __init__(self, max_depth: int, min_leaf: int):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: _Node | None = None

    def _grow(self, X, stats, idx, order, depth) -> _Node:
        node = _Node()
        node.value, total = self._leaf(stats, idx)
        if total is None or depth >= self.max_depth:
            return node
        best = self._split(X, stats, idx, order, total)
        if best is None:
            return node
        _, node.feature, node.threshold = best
        left, right = _partition(X, idx, order, node.feature, node.threshold)
        node.left = self._grow(X, stats, *left, depth + 1)
        node.right = self._grow(X, stats, *right, depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(len(X), dtype=self.value_dtype)
        _route(self.root, X, np.arange(len(X)), out)
        return out


class DecisionTreeClassifier(_Tree):
    """Binary CART with Gini impurity."""

    value_dtype = int

    def __init__(self, max_depth: int = 6, min_leaf: int = 5):
        super().__init__(max_depth, min_leaf)

    def fit(self, X: np.ndarray, y: np.ndarray, boot: np.ndarray | None = None,
            order: np.ndarray | None = None, max_features: int | None = None,
            rng: np.random.Generator | None = None) -> "DecisionTreeClassifier":
        """Grow on the drawn rows ``X[boot]`` (default: every row once).

        Each drawn row is held once, with its draw count, in the order of
        ``_presort(X)``; ``order`` is that presort, passed in when many
        trees share one X.  ``boot`` only sets the draw counts, so a zero
        threshold may carry the other sign than on ``X[boot]``, which
        ``x <= threshold`` does not tell apart.  ``max_features``, when set,
        draws that many candidate features per split from ``rng``
        (random-forest usage).
        """
        n, self.n_features = X.shape
        self.max_features, self.rng = max_features, rng
        boot = np.arange(n) if boot is None else boot
        order = _presort(X) if order is None else order
        w = np.bincount(boot, minlength=n)
        idx = np.flatnonzero(w)
        flat = order.ravel()
        order = flat.compress(w[flat] > 0).reshape(self.n_features, idx.size)
        self.root = self._grow(X, (w, w * y), idx, order, depth=0)
        return self

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None or self.max_features >= self.n_features:
            return np.arange(self.n_features)
        return np.sort(self.rng.choice(self.n_features, self.max_features, replace=False))

    def _leaf(self, stats, idx):
        w, wy = stats
        ones = int(wy[idx].sum())
        n = int(w[idx].sum())
        stays = n < 2 * self.min_leaf or ones == 0 or ones == n
        return (1 if 2 * ones > n else 0), (None if stays else n)

    def _split(self, X, stats, idx, order, n):
        return _best_gini_split(X, *stats, order, n, self._candidate_features(), self.min_leaf)


def _best_mse_split(X, g, idx, order, total, min_leaf):
    """Best squared-error split: maximize L^2/k + R^2/(n-k) of target sums,
    with ``total`` the node's target sum.

    All features are scored in one 2-D pass over their presorted rows.
    Returns (-gain, feature, threshold), or None: the gain is negated so
    the shared lowest-score search picks the same cut as a highest-gain one.
    """
    features = np.arange(order.shape[0])
    xs = X[order, features[:, None]]
    left = np.cumsum(g[order], axis=1)[:, :-1]
    k = np.arange(1, idx.size, dtype=float)
    rk, valid = _valid_cuts(xs, k, idx.size, min_leaf)
    gain = left**2 / k + (total - left) ** 2 / rk
    return _first_best(np.where(valid, -gain, np.inf), valid, xs, features)


class RegressionTree(_Tree):
    """Squared-error tree over pseudo-residuals with Newton leaf values.

    Leaf value = sum(residuals) / (sum(hessians) + eps), the single Newton
    step for logistic loss used by gradient boosting.
    """

    def fit(self, X: np.ndarray, residuals: np.ndarray, hessians: np.ndarray,
            order: np.ndarray | None = None) -> "RegressionTree":
        """``order`` is ``_presort(X)``, passed in when many trees share one X."""
        order = _presort(X) if order is None else order
        self.root = self._grow(X, (residuals, hessians), np.arange(len(residuals)), order, depth=0)
        return self

    def _leaf(self, stats, idx):
        g, h = stats
        total = g[idx].sum()
        value = float(total / (h[idx].sum() + 1e-12))
        return value, (None if idx.size < 2 * self.min_leaf else float(total))

    def _split(self, X, stats, idx, order, total):
        return _best_mse_split(X, stats[0], idx, order, total, self.min_leaf)
