"""Bootstrap forest and gradient boosting built on the tree module."""

from __future__ import annotations

import math

import numpy as np

from ..seeding import substream
from .linear import _sigmoid
from .tree import DecisionTreeClassifier, RegressionTree, _presort


class RandomForestClassifier:
    """Bagged Gini trees with sqrt(d) candidate features per split.

    Tree i draws its bootstrap sample and feature subsets from the stream
    (seed, i), so the forest is reproducible under any training order.
    A tree holds its bootstrap as row draw counts over one presort of X,
    and grows the same nodes as a tree fit on the copies ``X[boot]``.
    """

    def __init__(self, trees: int = 100, max_depth: int = 6, min_leaf: int = 5):
        self.n_trees = trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.trees: list[DecisionTreeClassifier] = []

    def fit(self, X: np.ndarray, y: np.ndarray, seed=0) -> "RandomForestClassifier":
        n, d = X.shape
        max_features = max(1, int(round(math.sqrt(d))))
        order = _presort(X)  # every tree grows on its drawn rows of this one presort
        self.trees = []
        for i in range(self.n_trees):
            rng = substream(seed, i)
            boot = rng.integers(0, n, n)
            tree = DecisionTreeClassifier(max_depth=self.max_depth, min_leaf=self.min_leaf)
            tree.fit(X, y, boot, order, max_features, rng)
            self.trees.append(tree)
        return self

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X), dtype=float)
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_score(X) > 0.5).astype(int)


class GradientBoostClassifier:
    """Logistic-loss gradient boosting with shallow squared-error trees.

    Each round fits a regression tree to the residuals y - p and applies
    Newton leaf values; the ensemble score is sigmoid of the staged sum.
    """

    def __init__(self, rounds: int = 100, max_depth: int = 3,
                 learning_rate: float = 0.1, min_leaf: int = 1):
        self.rounds = rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.min_leaf = min_leaf
        self.base_score = 0.0
        self.trees: list[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostClassifier":
        p0 = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        self.base_score = math.log(p0 / (1.0 - p0))
        margin = np.full(len(y), self.base_score)
        order = _presort(X)  # X is the same in every round
        self.trees = []
        for _ in range(self.rounds):
            p = _sigmoid(margin)
            tree = RegressionTree(max_depth=self.max_depth, min_leaf=self.min_leaf)
            tree.fit(X, y - p, p * (1.0 - p), order)
            margin = margin + self.learning_rate * tree.predict(X)
            self.trees.append(tree)
        return self

    def decision_margin(self, X: np.ndarray) -> np.ndarray:
        margin = np.full(len(X), self.base_score)
        for tree in self.trees:
            margin = margin + self.learning_rate * tree.predict(X)
        return margin

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_margin(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_score(X) > 0.5).astype(int)
