"""Learners whose per-fit work is hoisted out of their loops, against the
brute-force loops in brute_force.py: forests of row-count trees at sizes
``test_tree_presort.py`` does not reach, k-means and the linear SVM.
Every node, centroid and weight must be bit-identical.
"""

import numpy as np
import pytest

from bnsjump.classifiers.ensemble import RandomForestClassifier
from bnsjump.classifiers.linear import LinearSVMClassifier
from bnsjump.classifiers.neighbors import KMeansLabeler
from bnsjump.seeding import substream

from brute_force import (
    brute_force_gini_tree,
    brute_force_kmeans,
    brute_force_linear_svm,
    brute_force_sq_distances,
)
from test_tree_presort import assert_same_tree, oracle_predict, same


def wide_data(rng, n):
    """(X, y) with a signed-zero column, few-valued columns and a continuous one."""
    X = np.column_stack([
        rng.choice([-0.0, 0.0, 1.5], size=n),
        rng.integers(0, 3, size=n).astype(float),
        rng.normal(size=n),
        rng.integers(0, 6, size=n).astype(float),
        rng.choice([-0.0, 0.0], size=n),
    ])
    y = (rng.random(n) < 0.3 + 0.3 * (X[:, 0] > 0) + 0.1 * X[:, 1]).astype(int)
    return X, y


@pytest.mark.parametrize("seed", range(4))
def test_forest_matches_oracle_at_scale(seed):
    """Bootstraps of 1000+ rows hold many copies of every tied value, and
    both signs of zero reach thresholds."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1000, 1600))
    X, y = wide_data(rng, n)
    min_leaf = [0, 1, 5, 40][seed]
    forest = RandomForestClassifier(trees=5, max_depth=6, min_leaf=min_leaf).fit(X, y, seed=seed)
    votes = np.zeros(n)
    for i, tree in enumerate(forest.trees):
        stream = substream(seed, i)
        boot = stream.integers(0, n, n)
        oracle = brute_force_gini_tree(X[boot], y[boot], 6, min_leaf, 2, stream)
        assert_same_tree(tree, oracle, zero_sign=False)
        votes += oracle_predict(oracle, X, "value")
    assert same(forest.predict_score(X), votes / len(forest.trees))


def kmeans_data(rng):
    """Rows drawn from a few distinct points (duplicates), some jittered."""
    n, d = int(rng.integers(1, 80)), int(rng.integers(1, 5))
    points = rng.normal(size=(int(rng.integers(1, 6)), d))
    X = points[rng.integers(0, len(points), size=n)]
    if rng.random() < 0.5:
        X = X + rng.normal(scale=0.1, size=X.shape)
    y = (rng.random(n) < rng.choice([0.0, 0.3, 0.7])).astype(int)
    return X, y


@pytest.mark.parametrize("seed", range(30))
def test_kmeans_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    X, y = kmeans_data(rng)
    k = int(rng.integers(1, 9))
    model = KMeansLabeler(k=k, iterations=int(rng.integers(1, 30)), restarts=3).fit(X, y, seed=seed)
    centroids, labels = brute_force_kmeans(X, y, k, model.iterations, 3, seed)
    assert same(model.centroids, centroids)
    assert same(model.cluster_labels, labels)
    X_new = np.vstack([X, rng.normal(size=(5, X.shape[1]))])
    assert same(model.predict(X_new),
                labels[np.argmin(brute_force_sq_distances(X_new, centroids), axis=1)])


def test_kmeans_data_reaches_empty_clusters():
    """More clusters than distinct rows: equal centroids leave clusters empty."""
    X = np.repeat(np.array([[0.0, 1.0], [2.0, -1.0]]), 6, axis=0)
    y = np.array([0, 1] * 6)
    model = KMeansLabeler(k=4, restarts=2).fit(X, y, seed=5)
    centroids, labels = brute_force_kmeans(X, y, 4, 100, 2, 5)
    assert same(model.centroids, centroids) and same(model.cluster_labels, labels)
    assign = np.argmin(brute_force_sq_distances(X, centroids), axis=1)
    assert len(np.unique(assign)) < 4


def margins_clear(X, y, w, b) -> bool:
    """True when no row is inside the margin, so the next epoch has no active rows."""
    return bool(np.all((2.0 * y - 1.0) * (X @ w + b) >= 1.0))


@pytest.mark.parametrize("seed", range(20))
def test_linear_svm_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 120)), int(rng.integers(1, 6))
    X = rng.normal(size=(n, d))
    X[::4] = X[0]
    y = (rng.random(n) < 0.5).astype(int)
    if seed % 2:  # well separated: later epochs have no active rows
        X[:, 0] += 4.0 * (2 * y - 1)
    c, epochs = float(rng.choice([0.1, 1.0, 10.0])), int(rng.integers(1, 80))
    model = LinearSVMClassifier(c=c, epochs=epochs).fit(X, y)
    w, b = brute_force_linear_svm(X, y, c, epochs)
    assert same(model.weights, w)
    assert same(np.float64(model.bias), np.float64(b))


def test_svm_data_reaches_epochs_without_active_rows():
    X = np.array([[-3.0], [-2.0], [2.0], [3.0], [3.0]])
    y = np.array([0, 0, 1, 1, 1])
    cleared = [t for t in range(1, 30) if margins_clear(X, y, *brute_force_linear_svm(X, y, 1.0, t))]
    assert cleared
    model = LinearSVMClassifier(c=1.0, epochs=30).fit(X, y)
    w, b = brute_force_linear_svm(X, y, 1.0, 30)
    assert same(model.weights, w) and model.bias == b
