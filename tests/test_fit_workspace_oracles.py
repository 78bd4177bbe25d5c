"""The workspace neural-net fit and the tree split pick against the loops
they replace (brute_force.py).

Every fitted parameter must match the per-layer epoch loop byte for byte,
and every pick the per-feature walk over numpy scalars: the same score,
feature and threshold, compared by ``float.hex`` so -0.0 is told from 0.0.
"""

import itertools

import numpy as np
import pytest

from bnsjump.classifiers.neural import NeuralNetClassifier
from bnsjump.classifiers.tree import _first_best

from brute_force import brute_force_first_best, brute_force_neural_net_fit


def same(got, want) -> bool:
    """Equal dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_fit(X, y, hidden_width, epochs, seed, learning_rate=0.01):
    net = NeuralNetClassifier(hidden_width=hidden_width, epochs=epochs,
                              learning_rate=learning_rate).fit(X, y, seed=seed)
    want = brute_force_neural_net_fit(X, y, hidden_width, epochs, learning_rate, seed)
    assert len(net.params) == len(want)
    for got, expected in zip(net.params, want):
        assert same(got, expected)
    return net


@pytest.mark.parametrize("n,d,hidden_width,epochs",
                         list(itertools.product([1, 2, 37, 1201], [1, 10], [1, 2, 32], [0, 1, 7])))
def test_neural_net_fit_matches_epoch_loop(n, d, hidden_width, epochs):
    rng = np.random.default_rng(1000 * n + 10 * d + hidden_width)
    X = rng.normal(size=(n, d))
    y = (rng.random(n) < 0.3).astype(int)
    assert_same_fit(X, y, hidden_width, epochs, seed=(n, d))


@pytest.mark.parametrize("share", [0.0, 0.02, 1.0], ids=["all-zero", "imbalanced", "all-one"])
def test_neural_net_fit_matches_on_imbalanced_labels(share):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 10))
    y = (rng.random(300) < share).astype(int)
    y[0] = int(share > 0)  # at least one row of the rare class at 2%
    assert_same_fit(X, y, 32, 7, seed=3)


def test_neural_net_fit_matches_with_every_relu_dead():
    """Zero inputs and zero biases: no unit ever fires, the hidden gradients
    are zeros (some -0.0) and only the output bias learns."""
    X = np.zeros((40, 10))
    y = (np.arange(40) % 3 == 0).astype(int)
    net = assert_same_fit(X, y, 32, 7, seed=5)
    w1, c1, w2, c2, w3, c3 = net.params
    assert not np.any(c1) and not np.any(c2) and np.any(c3)


def test_neural_net_fit_matches_on_strided_input_and_larger_steps():
    """A column slice of a wider array (non-contiguous X) and a learning
    rate that moves the weights far."""
    rng = np.random.default_rng(11)
    wide = rng.normal(size=(200, 20)) * 5.0
    X = wide[:, ::2]
    y = (X[:, 0] + rng.normal(size=200) > 1.0).astype(int)
    assert_same_fit(X, y, 2, 7, seed=9, learning_rate=0.5)


def pick_key(best):
    """A pick with floats as hex and types kept, or None."""
    if best is None:
        return None
    score, feature, threshold = best
    assert type(score) is float and type(feature) is int and type(threshold) is float
    return score.hex(), feature, threshold.hex()


def pick_case(rng):
    """(scores, valid, xs, features): ``F`` candidate features by ``w`` cuts,
    invalid cuts scored inf like the callers do."""
    F, w = int(rng.integers(1, 7)), int(rng.integers(0, 9))
    valid = rng.random((F, w)) < rng.choice([0.0, 0.3, 0.9, 1.0])
    scores = rng.random((F, w))
    if w and rng.random() < 0.7:  # near-ties with the first row's minimum
        base = scores[0].min()
        for r in range(1, F):
            scores[r, rng.integers(0, w)] = base + rng.choice([-2e-12, -0.5e-12, 0.0, 0.5e-12, 2e-12])
    scores = np.where(valid, scores, np.inf)
    xs = rng.choice([-0.0, 0.0, 1.5, -2.25, 3.0], size=(F, w))
    features = np.sort(rng.choice(10, F, replace=False))
    return scores, valid, xs, features


@pytest.mark.parametrize("seed", range(200))
def test_first_best_matches_feature_walk(seed):
    scores, valid, xs, features = pick_case(np.random.default_rng(seed))
    assert pick_key(_first_best(scores, valid, xs, features)) == \
        pick_key(brute_force_first_best(scores, valid, xs, features))


def test_first_best_cases_reach_every_branch():
    """The random cases hold each edge at least once."""
    seen = set()
    for seed in range(200):
        scores, valid, xs, features = pick_case(np.random.default_rng(seed))
        best = brute_force_first_best(scores, valid, xs, features)
        if scores.shape[1] == 0:
            seen.add("zero-width")
        elif not valid.any():
            seen.add("all-invalid")
        elif not valid.any(axis=1).all():
            seen.add("some-invalid-rows")
        if best is not None and best[2] == 0.0:
            seen.add("negative-zero" if np.signbit(best[2]) else "positive-zero")
        if best is not None and best[1] != features[valid.any(axis=1)][0]:
            seen.add("later-feature-wins")
    assert seen == {"zero-width", "all-invalid", "some-invalid-rows", "negative-zero",
                    "positive-zero", "later-feature-wins"}


@pytest.mark.parametrize("gap,winner", [(-2e-12, 1), (-0.5e-12, 0), (0.5e-12, 0), (2e-12, 0)])
def test_first_best_tie_rule(gap, winner):
    """A later feature wins only by more than 1e-12."""
    scores = np.array([[0.5, 0.25], [0.25 + gap, 0.75]])
    valid = np.ones_like(scores, dtype=bool)
    xs = np.array([[1.0, -0.0], [2.0, 3.0]])
    features = np.array([4, 7])
    best = _first_best(scores, valid, xs, features)
    assert pick_key(best) == pick_key(brute_force_first_best(scores, valid, xs, features))
    assert best[1] == features[winner]
    assert best[2].hex() == [(-0.0).hex(), (2.0).hex()][winner]


def test_first_best_single_row_node_has_no_cut():
    empty = np.empty((3, 0))
    assert _first_best(empty, empty.astype(bool), empty, np.arange(3)) is None
