"""Presorted trees against the re-sorting oracles in brute_force.py.

Every node (feature, threshold, value), every prediction and every
boosting margin must be bit-identical.  The random data carries tied and
signed-zero values, constant columns, bootstrap duplicates, single-class
targets and ``min_leaf`` values at which no split is possible.
"""

import numpy as np
import pytest

from bnsjump.classifiers.ensemble import (
    GradientBoostClassifier,
    RandomForestClassifier,
    _sigmoid,
)
from bnsjump.classifiers.tree import DecisionTreeClassifier, RegressionTree, _partition, _presort
from bnsjump.seeding import substream

from brute_force import brute_force_gini_tree, brute_force_regression_tree, brute_force_route

SEEDS = range(40)


def same(got, want) -> bool:
    """Equal dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def package_nodes(node) -> list:
    """Preorder (feature, threshold, value) of a package tree."""
    if node is None:
        return []
    return ([(node.feature, node.threshold, node.value)]
            + package_nodes(node.left) + package_nodes(node.right))


def oracle_nodes(node) -> list:
    if node is None:
        return []
    return ([(node["feature"], node["threshold"], node["value"])]
            + oracle_nodes(node["left"]) + oracle_nodes(node["right"]))


def assert_same_tree(tree, oracle, zero_sign=True):
    """``zero_sign=False`` compares zero thresholds after ``+ 0.0``: a forest
    tree keeps one copy of each drawn row, so its zero threshold may carry
    the other sign than on the drawn copies, which routing does not tell."""
    # repr compares floats bit for bit, telling -0.0 from 0.0
    got, want = package_nodes(tree.root), oracle_nodes(oracle)
    if not zero_sign:
        got, want = ([(f, t + 0.0, v) for f, t, v in nodes] for nodes in (got, want))
    assert repr(got) == repr(want)


def oracle_predict(root, X, field) -> np.ndarray:
    return np.array([brute_force_route(root, x)[field] for x in X])


def random_data(rng, n=None):
    """(X, y): continuous, few-valued (ties), signed-zero and constant columns."""
    n = int(rng.integers(1, 120)) if n is None else n
    columns = []
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.integers(0, 4)
        if kind == 0:
            columns.append(rng.normal(size=n))
        elif kind == 1:
            columns.append(rng.integers(0, 4, size=n).astype(float))
        elif kind == 2:
            columns.append(rng.choice([-0.0, 0.0, 1.5], size=n))
        else:
            columns.append(np.full(n, 2.5))
    X = np.column_stack(columns)
    y = (rng.random(n) < rng.choice([0.0, 0.2, 0.4, 0.5, 0.6])).astype(int)
    return X, y


def random_min_leaf(rng, n):
    """Often small, down to 0 (single-row nodes reach the split search);
    sometimes at the edge, where n == 2 min_leaf or no split fits."""
    return int(rng.choice([0, 1, 1, 2, 4, max(1, n // 2), n // 2 + 1]))


@pytest.mark.parametrize("seed", SEEDS)
def test_decision_tree_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    X, y = random_data(rng)
    n, d = X.shape
    depth, min_leaf = int(rng.integers(1, 7)), random_min_leaf(rng, n)
    max_features = None if seed % 2 else int(rng.integers(1, d + 1))
    tree = DecisionTreeClassifier(max_depth=depth, min_leaf=min_leaf).fit(
        X, y, max_features=max_features, rng=np.random.default_rng(seed))
    oracle = brute_force_gini_tree(X, y, depth, min_leaf, max_features,
                                   np.random.default_rng(seed))
    assert_same_tree(tree, oracle)
    X_new = np.vstack([X, rng.normal(size=(20, d))])
    assert same(tree.predict(X_new), oracle_predict(oracle, X_new, "value").astype(int))


@pytest.mark.parametrize("seed", SEEDS[:15])
def test_forest_trees_match_oracle_on_bootstraps(seed):
    """Each tree presorts its own bootstrap (duplicate rows) and draws the
    same candidate features from the same stream as before."""
    rng = np.random.default_rng(seed)
    X, y = random_data(rng)
    n, d = X.shape
    forest = RandomForestClassifier(trees=4, max_depth=5, min_leaf=2).fit(X, y, seed=seed)
    max_features = max(1, int(round(np.sqrt(d))))
    votes = np.zeros(n)
    for i, tree in enumerate(forest.trees):
        stream = substream(seed, i)
        boot = stream.integers(0, n, n)
        oracle = brute_force_gini_tree(X[boot], y[boot], 5, 2, max_features, stream)
        assert_same_tree(tree, oracle, zero_sign=False)
        votes += oracle_predict(oracle, X, "value")
    assert same(forest.predict_score(X), votes / len(forest.trees))


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_boosting_matches_oracle(seed):
    """Every round's tree, grown on the shared presort, and the final margins."""
    rng = np.random.default_rng(seed)
    X, y = random_data(rng)
    depth, min_leaf = int(rng.integers(1, 4)), random_min_leaf(rng, len(y))
    model = GradientBoostClassifier(rounds=6, max_depth=depth, min_leaf=min_leaf,
                                    learning_rate=0.3).fit(X, y)
    target = y.astype(float)
    margin = np.full(len(y), model.base_score)
    for tree in model.trees:
        p = _sigmoid(margin)
        oracle = brute_force_regression_tree(X, target - p, p * (1.0 - p), depth, min_leaf)
        assert_same_tree(tree, oracle)
        margin = margin + 0.3 * oracle_predict(oracle, X, "value")
    assert same(model.decision_margin(X), margin)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_regression_tree_presorts_itself(seed):
    rng = np.random.default_rng(seed)
    X, _ = random_data(rng)
    g, h = rng.normal(size=len(X)), rng.random(len(X))
    tree = RegressionTree(max_depth=3, min_leaf=1).fit(X, g, h)
    oracle = brute_force_regression_tree(X, g, h, 3, 1)
    assert_same_tree(tree, oracle)
    assert same(tree.predict(X), oracle_predict(oracle, X, "value"))


def assert_stably_sorted(X, idx, order):
    """Row f of ``order`` holds exactly ``idx``, ordered by X[:, f] and, among
    tied values, by row number."""
    assert order.shape == (X.shape[1], idx.size)
    for f, rows in enumerate(order):
        assert same(np.sort(rows), idx)
        xs = X[rows, f]
        assert np.all(xs[1:] >= xs[:-1])
        assert np.all((rows[1:] > rows[:-1]) | (xs[1:] != xs[:-1]))


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_presort_and_partition_stay_stable(seed):
    """Down a chain of random splits, each child's order equals a fresh stable
    sort of its rows, and its ``idx`` stays ascending."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(200, 4)).astype(float)
    idx, order = np.arange(len(X)), _presort(X)
    assert_stably_sorted(X, idx, order)
    while idx.size > 1:
        f = int(rng.integers(0, X.shape[1]))
        threshold = float(rng.choice(X[idx, f]))
        mask = X[idx, f] <= threshold
        left, right = _partition(X, idx, order, f, threshold)
        assert same(left[0], idx[mask]) and same(right[0], idx[~mask])
        for child_idx, child_order in (left, right):
            assert_stably_sorted(X, child_idx, child_order)
        idx, order = left if rng.random() < 0.5 and left[0].size else right
        if idx.size == 0:
            break
