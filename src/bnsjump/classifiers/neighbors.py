"""Distance-based learners: k-nearest neighbors and a labeled k-means."""

from __future__ import annotations

import numpy as np

from ..seeding import substream

# Queries are scored max(1, KNN_CHUNK_ELEMENTS // n_train) rows at a time, so
# the two distance buffers hold about KNN_CHUNK_ELEMENTS float64 values each
# (1 MiB), whatever n_train is. Measured: 2**20 put train_grid's whole test
# split into one chunk and raised its peak; 2**16 slowed year-scale scoring.
KNN_CHUNK_ELEMENTS = 2**17


def _sq_norms(A: np.ndarray) -> np.ndarray:
    return (A**2).sum(axis=1)


def _sq_distances(a_sq: np.ndarray, twice_a: np.ndarray, B: np.ndarray, b_sq: np.ndarray,
                  out: np.ndarray | None = None, gram: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances, |A| x |B|, from the squared row
    norms of A and B and from ``2.0 * A``, so a caller that meets one side
    many times computes its terms once.  ``out`` and ``gram``, |A| x |B|
    buffers a caller may reuse, receive the distances and ``twice_a @ B.T``."""
    d2 = np.add(a_sq[:, None], b_sq[None, :], out=out)
    d2 -= np.matmul(twice_a, B.T, out=gram)
    return np.maximum(d2, 0.0, out=d2)


class KNearestClassifier:
    """Majority vote among the k nearest training rows (Euclidean)."""

    def __init__(self, k: int = 5):
        self.k = k
        self.X: np.ndarray | None = None
        self.y: np.ndarray | None = None
        self.sq_norms: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNearestClassifier":
        self.X, self.y = X, y
        self.sq_norms = _sq_norms(self.X)
        return self

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        k = min(self.k, len(self.y))
        scores = np.empty(len(X))
        rows = max(1, min(len(X), KNN_CHUNK_ELEMENTS // len(self.y)))
        d2_buf = np.empty((rows, len(self.y)))  # every chunk reuses both buffers
        gram_buf = np.empty_like(d2_buf)
        for lo in range(0, len(X), rows):
            A = X[lo:lo + rows]
            d2 = _sq_distances(_sq_norms(A), 2.0 * A, self.X, self.sq_norms,
                               d2_buf[:len(A)], gram_buf[:len(A)])
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            scores[lo:lo + rows] = self.y[nearest].mean(axis=1)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_score(X) > 0.5).astype(int)


class KMeansLabeler:
    """Lloyd k-means whose clusters inherit the majority training label.

    Runs ``restarts`` seeded initializations and keeps the lowest-inertia
    run (earliest restart wins ties); prediction assigns the label of the
    nearest centroid.
    """

    def __init__(self, k: int = 2, iterations: int = 100, restarts: int = 10):
        self.k = k
        self.iterations = iterations
        self.restarts = restarts
        self.centroids: np.ndarray | None = None
        self.cluster_labels: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed=0) -> "KMeansLabeler":
        n = len(X)
        k = min(self.k, n)
        x_sq, twice_x = _sq_norms(X), 2.0 * X

        def distances(centroids):
            return _sq_distances(x_sq, twice_x, centroids, _sq_norms(centroids))

        best_inertia = np.inf
        best_centroids = None
        for r in range(self.restarts):
            rng = substream(seed, r)
            centroids = X[rng.choice(n, k, replace=False)].copy()
            assign = None
            for _ in range(self.iterations):
                new_assign = np.argmin(distances(centroids), axis=1)
                if assign is not None and np.array_equal(new_assign, assign):
                    break
                assign = new_assign
                for c in range(k):
                    members = X[assign == c]
                    if len(members):
                        centroids[c] = members.mean(axis=0)
            inertia = float(distances(centroids).min(axis=1).sum())
            if inertia < best_inertia - 1e-12:
                best_inertia = inertia
                best_centroids = centroids.copy()
        self.centroids = best_centroids
        assign = np.argmin(distances(self.centroids), axis=1)
        # each cluster's majority label; an empty cluster takes the overall one
        size = np.bincount(assign, minlength=k)
        ones = np.bincount(assign, weights=y, minlength=k)
        overall = 1 if 2 * int(y.sum()) > n else 0
        self.cluster_labels = np.where(size > 0, 2 * ones > size, overall).astype(int)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        assign = np.argmin(_sq_distances(_sq_norms(X), 2.0 * X, self.centroids,
                                         _sq_norms(self.centroids)), axis=1)
        return self.cluster_labels[assign]
