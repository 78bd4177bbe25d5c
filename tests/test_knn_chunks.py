"""Chunked k-NN scoring against one whole-matrix pass (brute_force.py)."""

import numpy as np
import pytest

from bnsjump.classifiers import neighbors
from bnsjump.classifiers.neighbors import KNearestClassifier

from brute_force import brute_force_knn_scores


@pytest.mark.parametrize("chunk", [1, 3, 7, neighbors.KNN_CHUNK_ROWS])
def test_chunked_scores_are_identical(chunk, monkeypatch):
    """Duplicate training rows tie on distance; test sizes straddle the chunk."""
    monkeypatch.setattr(neighbors, "KNN_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(chunk)
    for n_test in (0, 1, chunk, 2 * chunk + 1, 300):
        X_train = rng.normal(size=(int(rng.integers(1, 400)), int(rng.integers(1, 12))))
        X_train[::3] = X_train[0]
        y_train = rng.integers(0, 2, size=len(X_train))
        X = rng.normal(size=(n_test, X_train.shape[1]))
        X[::4] = X_train[0]
        for k in (1, 5, 1000):
            got = KNearestClassifier(k=k).fit(X_train, y_train).predict_score(X)
            want = brute_force_knn_scores(X_train, y_train, X, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
