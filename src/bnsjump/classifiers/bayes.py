"""Gaussian naive Bayes with a per-feature variance floor."""

from __future__ import annotations

import math

import numpy as np


class GaussianNaiveBayes:
    def __init__(self, variance_floor: float = 1e-9):
        self.variance_floor = variance_floor
        self.log_priors: np.ndarray | None = None
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        n, d = X.shape
        self.log_priors = np.empty(2)
        self.means = np.empty((2, d))
        self.variances = np.empty((2, d))
        for c in (0, 1):
            rows = X[y == c]
            self.log_priors[c] = math.log(len(rows) / n)
            self.means[c] = rows.mean(axis=0)
            self.variances[c] = np.maximum(rows.var(axis=0), self.variance_floor)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((len(X), 2))
        for c in (0, 1):
            var = self.variances[c]
            out[:, c] = self.log_priors[c] - 0.5 * np.sum(
                np.log(2.0 * math.pi * var) + (X - self.means[c]) ** 2 / var, axis=1)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        return (jll[:, 1] > jll[:, 0]).astype(int)
