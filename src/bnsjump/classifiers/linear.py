"""Gradient-trained linear models: logistic regression and a hinge-loss SVM."""

from __future__ import annotations

import math

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class LogisticRegressionGD:
    """Maximum-likelihood logistic regression via full-batch gradient descent."""

    def __init__(self, learning_rate: float = 0.1, epochs: int = 500, l2: float = 1e-4):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.weights: np.ndarray | None = None
        self.bias = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressionGD":
        n, d = X.shape
        self.weights = np.zeros(d)
        self.bias = 0.0
        for _ in range(self.epochs):
            err = _sigmoid(X @ self.weights + self.bias) - y
            grad_w = X.T @ err / n + self.l2 * self.weights
            grad_b = float(err.mean())
            self.weights -= self.learning_rate * grad_w
            self.bias -= self.learning_rate * grad_b
        return self

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.weights + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_score(X) > 0.5).astype(int)


class LinearSVMClassifier:
    """Maximum-margin linear classifier trained by hinge-loss subgradient descent.

    Minimizes (lam/2)||w||^2 + (1/n) sum hinge with lam = 1/(C n), using the
    1/(lam t) step schedule and a norm-ball projection; the bias is updated
    unregularized.  Deterministic: full-batch, no sampling.
    """

    def __init__(self, c: float = 1.0, epochs: int = 500):
        self.c = c
        self.epochs = epochs
        self.weights: np.ndarray | None = None
        self.bias = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVMClassifier":
        y_pm = 2.0 * y - 1.0
        y_x = y_pm[:, None] * X  # each epoch sums the rows of this inside the margin
        n, d = X.shape
        lam = 1.0 / (self.c * n)
        radius = 1.0 / math.sqrt(lam)
        w = np.zeros(d)
        b = 0.0
        for t in range(1, self.epochs + 1):
            eta = 1.0 / (lam * t)
            active = y_pm * (X @ w + b) < 1.0
            if active.any():
                push_w = y_x[active].sum(axis=0) / n
                push_b = float(y_pm[active].sum()) / n
            else:
                push_w = 0.0
                push_b = 0.0
            w = (1.0 - eta * lam) * w + eta * push_w
            b = b + eta * push_b
            norm = float(np.linalg.norm(w))
            if norm > radius:
                w *= radius / norm
        self.weights = w
        self.bias = b
        return self

    def decision_value(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_value(X) > 0.0).astype(int)
