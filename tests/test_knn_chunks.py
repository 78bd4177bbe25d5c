"""Chunked k-NN scoring against one whole-matrix pass (brute_force.py), and
the memory that scoring holds at once."""

import tracemalloc

import numpy as np
import pytest

from bnsjump.classifiers import neighbors
from bnsjump.classifiers.neighbors import KNearestClassifier

from brute_force import brute_force_knn_scores


@pytest.mark.parametrize("seed, rows", [(1, 1), (3, 3), (7, 7), (256, "default"), (5, "floor")],
                         ids=["1", "3", "7", "256", "floor"])
def test_chunked_scores_are_identical(seed, rows, monkeypatch):
    """Duplicate training rows tie on distance; test sizes straddle the chunk.

    KNN_CHUNK_ELEMENTS is set to give ``rows`` query rows per chunk; "default"
    keeps its shipped value, and "floor" sets it below n_train, so that the
    max(1, ...) floor gives one-row chunks.

    A row's GEMM bits can depend on how many rows the call has, and a tie
    between duplicates then picks other neighbours. The random draws of the
    first four cases do not meet that; the "floor" case uses whole-number
    features, whose distances are exact, so it does not rest on the draw."""
    rng = np.random.default_rng(seed)
    for case in range(5):
        n_train, d = int(rng.integers(1, 400)), int(rng.integers(1, 12))
        if rows == "default":
            chunk = neighbors.KNN_CHUNK_ELEMENTS // n_train
        elif rows == "floor":
            chunk = 1
            monkeypatch.setattr(neighbors, "KNN_CHUNK_ELEMENTS", n_train - 1)
        else:
            chunk = rows
            # The largest budget that still gives `rows` rows.
            monkeypatch.setattr(neighbors, "KNN_CHUNK_ELEMENTS", (rows + 1) * n_train - 1)
        n_test = (0, 1, chunk, 2 * chunk + 1, 300)[case]
        X_train = rng.normal(size=(n_train, d))
        X_train[::3] = X_train[0]
        y_train = rng.integers(0, 2, size=len(X_train))
        X = rng.normal(size=(n_test, X_train.shape[1]))
        X[::4] = X_train[0]
        if rows == "floor":
            X_train, X = np.round(4 * X_train), np.round(4 * X)
        for k in (1, 5, 1000):
            got = KNearestClassifier(k=k).fit(X_train, y_train).predict_score(X)
            want = brute_force_knn_scores(X_train, y_train, X, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_scoring_memory_does_not_grow_with_n_train():
    """3000 queries against 1k to 16k training rows: the peak that tracemalloc
    sees (numpy's buffers included) stays within a few chunk budgets plus
    terms linear in n_test and n_train, where one n_test x n_train matrix
    would take 24 to 384 MB."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3000, 10))
    budget_bytes = 8 * neighbors.KNN_CHUNK_ELEMENTS
    for n_train in (1000, 4000, 16000):
        X_train = rng.normal(size=(n_train, 10))
        model = KNearestClassifier(k=5).fit(X_train, rng.integers(0, 2, size=n_train))
        tracemalloc.start()
        try:
            model.predict_score(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        limit = 6 * budget_bytes + 64 * (len(X) + n_train)
        assert peak < limit, (n_train, peak, limit)
