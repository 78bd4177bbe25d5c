"""Two-hidden-layer softmax network trained with full-batch Adam.

The decision rule labels a row 1 when the class-1 softmax probability
exceeds the configured threshold (default 0.3), which deliberately trades
precision for recall on rare jump windows.

A fit allocates its workspace once.  The six parameters, their six
gradients and the Adam moments ``m`` and ``v`` are each one flat float64
vector with per-layer views, so an Adam step is fourteen whole-vector
operations; the passes write into preallocated activation buffers.  Every
operation is the one the textbook epoch loop (kept as the test oracle)
performs, in the same order and on operands of the same shape and layout,
so the fitted parameters are bit-identical to it.  The trap is layout:
keep every GEMM's operand shapes and layouts.  The same product through
other layouts, such as ``(w1.T @ X.T).T`` for ``X @ w1``, may run another
BLAS kernel that sums in another order; on single-threaded OpenBLAS it
changes the bits at 28.5k rows.
"""

from __future__ import annotations

import numpy as np

from ..seeding import substream


def _forward(X, params, a1, a2, z3, row) -> np.ndarray:
    """The class probabilities ``z3`` of X -> ReLU -> ReLU -> softmax, into the
    caller's buffers.  The row max and sum over the two columns are one
    elementwise op each; exp never returns -0.0, so the sum equals np.sum's."""
    w1, c1, w2, c2, w3, c3 = params
    np.matmul(X, w1, out=a1)
    a1 += c1
    np.maximum(a1, 0.0, out=a1)
    np.matmul(a1, w2, out=a2)
    a2 += c2
    np.maximum(a2, 0.0, out=a2)
    np.matmul(a2, w3, out=z3)
    z3 += c3
    z3 -= np.maximum(z3[:, :1], z3[:, 1:], out=row)
    np.exp(z3, out=z3)
    z3 /= np.add(z3[:, :1], z3[:, 1:], out=row)
    return z3


def _layers(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat`` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class NeuralNetClassifier:
    def __init__(self, hidden_width: int = 32, epochs: int = 200,
                 learning_rate: float = 0.01, threshold: float = 0.3):
        self.hidden_width = hidden_width
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.threshold = threshold
        self.params: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed=0) -> "NeuralNetClassifier":
        n, d = X.shape
        h = self.hidden_width
        lr = self.learning_rate
        shapes = ((d, h), (h,), (h, h), (h,), (h, 2), (2,))
        size = (d + 1) * h + (h + 1) * h + (h + 1) * 2
        theta = np.zeros(size)  # the fitted model keeps only this vector
        grad, m, v, step, denom = np.zeros((5, size))
        params = _layers(theta, shapes)
        w1, c1, w2, c2, w3, c3 = params
        g1, g2, g3, g4, g5, g6 = _layers(grad, shapes)
        rng = substream(seed)
        # He-normal initialization for the ReLU layers
        w1[...] = rng.normal(0.0, np.sqrt(2.0 / d), (d, h))
        w2[...] = rng.normal(0.0, np.sqrt(2.0 / h), (h, h))
        w3[...] = rng.normal(0.0, np.sqrt(2.0 / h), (h, 2))
        onehot = np.zeros((n, 2))
        onehot[np.arange(n), y] = 1.0
        a1, a2, dz2, dz1 = np.empty((4, n, h))
        alive = np.empty((n, h), dtype=bool)
        z3, row = np.empty((n, 2)), np.empty((n, 1))
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, self.epochs + 1):
            _forward(X, params, a1, a2, z3, row)
            # the cross-entropy gradient dz3 = (probs - onehot) / n
            z3 -= onehot
            z3 /= n
            # back through the two ReLU layers
            np.matmul(a2.T, z3, out=g5)
            np.sum(z3, axis=0, out=g6)
            np.matmul(z3, w3.T, out=dz2)
            dz2 *= np.greater(a2, 0, out=alive)
            np.matmul(a1.T, dz2, out=g3)
            np.sum(dz2, axis=0, out=g4)
            np.matmul(dz2, w2.T, out=dz1)
            dz1 *= np.greater(a1, 0, out=alive)
            np.matmul(X.T, dz1, out=g1)
            np.sum(dz1, axis=0, out=g2)
            # Adam: m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
            # theta -= (lr m_hat) / (sqrt(v_hat) + eps)
            m *= b1
            m += np.multiply(grad, 1 - b1, out=step)
            v *= b2
            np.multiply(grad, grad, out=step)
            v += np.multiply(step, 1 - b2, out=step)
            np.divide(m, 1 - b1**t, out=step)
            step *= lr
            np.divide(v, 1 - b2**t, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            theta -= step
        self.params = params
        return self

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        n = len(X)
        a1, a2 = np.empty((2, n, self.hidden_width))
        probs = _forward(X, self.params, a1, a2, np.empty((n, 2)), np.empty((n, 1)))
        return probs[:, 1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_score(X) > self.threshold).astype(int)
