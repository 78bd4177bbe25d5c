"""``api.train`` and ``api.predict`` convert every input; the learners use the
arrays they are handed as given, so other input types must give the same
predictions as their float64 copies."""

from types import SimpleNamespace

import numpy as np
import pytest

from bnsjump.classifiers import ALGORITHM_IDS, api

from test_tree_presort import same


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHM_IDS)
def test_api_converts_inputs(algorithm, standardize):
    rng = np.random.default_rng(3)
    features = rng.integers(-5, 6, size=(60, 3))
    theta = (features[:, 0] + rng.integers(-2, 3, size=60) > 0).astype(int)
    hp = {"standardize": standardize}
    as_given = api.train(algorithm, SimpleNamespace(features=features, theta=theta.tolist()), hp, seed=1)
    as_float = api.train(algorithm, SimpleNamespace(features=features.astype(float), theta=theta),
                         hp, seed=1)
    queries = rng.integers(-6, 7, size=(25, 3))
    got = api.predict(as_given, queries)
    assert same(got, api.predict(as_float, queries.astype(float)))
    assert same(api.predict(as_given, queries.tolist()), got)


@pytest.mark.parametrize("algorithm", ALGORITHM_IDS)
def test_no_query_rows(algorithm):
    """Every learner predicts an empty int array for zero query rows."""
    rng = np.random.default_rng(3)
    features = rng.normal(size=(60, 3))
    model = api.train(algorithm, SimpleNamespace(features=features, theta=(features[:, 0] > 0).astype(int)),
                      seed=1)
    assert same(api.predict(model, features[:0]), np.empty(0, dtype=int))
