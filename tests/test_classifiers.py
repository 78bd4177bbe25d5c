import math

import numpy as np
import pytest

from bnsjump.classifiers import (
    ALGORITHM_IDS,
    DEFAULT_HYPERPARAMS,
    evaluate,
    predict,
    resolve_hyperparams,
    train,
)
from bnsjump.classifiers.api import _apply_scaler
from bnsjump.classifiers.neural import NeuralNetClassifier
from bnsjump.errors import InvalidParameterError

from brute_force import brute_force_neural_net_score
from conftest import as_dataset, separable_blobs

FAST_HP = {
    "gradient_boost": {"rounds": 15},
    "random_forest": {"trees": 15},
    "neural_net": {"epochs": 60},
    "logistic_regression": {"epochs": 150},
    "svm_linear": {"epochs": 150},
}


class TestEvaluate:
    def test_perfect_predictions(self):
        report = evaluate([0, 0, 1, 1], [0, 0, 1, 1])
        for metrics in (report.class0, report.class1):
            assert metrics.precision == 1.0
            assert metrics.recall == 1.0
            assert metrics.f1 == 1.0
            assert metrics.support == 2
        assert report.accuracy == 1.0

    def test_hand_confusion_matrix(self):
        report = evaluate([0, 1, 0, 1, 0], [0, 0, 0, 1, 1])
        assert report.class0.precision == pytest.approx(2.0 / 3.0)
        assert report.class0.recall == pytest.approx(2.0 / 3.0)
        assert report.class1.precision == pytest.approx(0.5)
        assert report.class1.recall == pytest.approx(0.5)
        assert report.supports() == (3, 2)
        assert report.accuracy == pytest.approx(0.6)

    def test_all_ones_on_imbalanced_truth(self):
        truth = np.concatenate([np.zeros(37, dtype=int), np.ones(293, dtype=int)])
        report = evaluate(np.ones(330, dtype=int), truth)
        assert report.class1.precision == pytest.approx(293.0 / 330.0, abs=1e-12)
        assert abs(report.class1.precision - 0.888) <= 1e-3
        assert report.class1.recall == 1.0
        assert report.class0.precision == 0.0
        assert report.class0.recall == 0.0
        assert "precision" in report.class0.zero_division
        assert report.supports() == (37, 293)

    def test_f1_harmonic_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            truth = rng.integers(0, 2, n)
            pred = rng.integers(0, 2, n)
            report = evaluate(pred, truth)
            for metrics in (report.class0, report.class1):
                if metrics.precision + metrics.recall > 0:
                    expected = (2 * metrics.precision * metrics.recall
                                / (metrics.precision + metrics.recall))
                    assert abs(metrics.f1 - expected) < 1e-12

    def test_micro_recall_equals_accuracy(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 2, 200)
        pred = rng.integers(0, 2, 200)
        report = evaluate(pred, truth)
        s0, s1 = report.supports()
        assert s0 + s1 == 200
        micro = (report.class0.recall * s0 + report.class1.recall * s1) / 200
        assert micro == pytest.approx(report.accuracy, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            evaluate([0, 1], [0, 1, 1])


class TestTrainBasics:
    def test_unknown_algorithm(self):
        with pytest.raises(InvalidParameterError):
            resolve_hyperparams("perceptron")

    def test_defaults_are_the_constructors(self):
        """Read from each estimator's constructor, plus ``standardize``."""
        expected = {
            "logistic_regression": {"learning_rate": 0.1, "epochs": 500, "l2": 1e-4,
                                    "standardize": True},
            "svm_linear": {"c": 1.0, "epochs": 500, "standardize": True},
            "knn": {"k": 5, "standardize": True},
            "kmeans": {"k": 2, "iterations": 100, "restarts": 10, "standardize": True},
            "naive_bayes_gaussian": {"variance_floor": 1e-9, "standardize": True},
            "gradient_boost": {"rounds": 100, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 1,
                               "standardize": True},
            "decision_tree": {"max_depth": 6, "min_leaf": 5, "standardize": True},
            "random_forest": {"trees": 100, "max_depth": 6, "min_leaf": 5, "standardize": True},
            "neural_net": {"hidden_width": 32, "epochs": 200, "learning_rate": 0.01,
                           "threshold": 0.3, "standardize": True},
        }
        assert DEFAULT_HYPERPARAMS == expected

        def types(bank):
            return {alg: {key: type(value) for key, value in hp.items()} for alg, hp in bank.items()}
        assert types(DEFAULT_HYPERPARAMS) == types(expected)

    def test_unknown_hyperparameter(self):
        with pytest.raises(InvalidParameterError):
            resolve_hyperparams("knn", {"kk": 3})

    @pytest.mark.parametrize("algorithm,key", [("knn", "k"), ("random_forest", "trees"),
                                               ("kmeans", "k"), ("kmeans", "restarts"),
                                               ("neural_net", "hidden_width")])
    def test_counts_must_be_integers_from_one(self, algorithm, key):
        message = rf"^{algorithm}\.{key} must be an integer >= 1, got "
        for value in (0, -3, 2.5, "3", True):
            with pytest.raises(InvalidParameterError, match=message):
                resolve_hyperparams(algorithm, {key: value})
        for value in (1, np.int64(3)):
            assert resolve_hyperparams(algorithm, {key: value})[key] == value

    def test_integer_defaults_take_only_integers(self):
        """Every integer default refuses a float, a text and a bool; the
        float defaults take a number, and ``standardize`` takes only a bool."""
        for algorithm, defaults in DEFAULT_HYPERPARAMS.items():
            for key, default in defaults.items():
                if type(default) is int:
                    message = rf"^{algorithm}\.{key} must be an integer >= [01], got "
                    for value in (1.5, 2.0, "3", True):
                        with pytest.raises(InvalidParameterError, match=message):
                            resolve_hyperparams(algorithm, {key: value})
                    assert resolve_hyperparams(algorithm, {key: np.int64(7)})[key] == 7
                elif type(default) is bool:
                    for value in (1, 0, "true", None):
                        with pytest.raises(InvalidParameterError,
                                           match=rf"^{algorithm}\.{key} must be true or false, got "):
                            resolve_hyperparams(algorithm, {key: value})
                    assert resolve_hyperparams(algorithm, {key: False})[key] is False
                else:
                    assert resolve_hyperparams(algorithm, {key: 1})[key] == 1

    def test_single_class_degenerate(self):
        X = np.random.default_rng(0).normal(size=(20, 4))
        ds = as_dataset(X, np.zeros(20, dtype=int))
        with pytest.warns(UserWarning):
            model = train("logistic_regression", ds)
        assert model.degenerate
        assert np.all(predict(model, X) == 0)

    def test_width_mismatch(self):
        X, y = separable_blobs(30)
        model = train("knn", as_dataset(X, y))
        with pytest.raises(InvalidParameterError):
            predict(model, np.zeros((5, 3)))

    def test_determinism_across_runs(self):
        X, y = separable_blobs(40, seed=9)
        ds = as_dataset(X, y)
        for alg in ALGORITHM_IDS:
            a = predict(train(alg, ds, FAST_HP.get(alg), seed=5), X)
            b = predict(train(alg, ds, FAST_HP.get(alg), seed=5), X)
            assert np.array_equal(a, b), alg

    def test_metadata_logs_hyperparams(self):
        X, y = separable_blobs(20)
        model = train("decision_tree", as_dataset(X, y))
        assert model.metadata["hyperparams"]["max_depth"] == 6
        assert model.metadata["hyperparams"]["standardize"] is True
        assert model.metadata["n_features"] == 2


class TestAlgorithmBehavior:
    def test_knn_one_neighbor_memorizes(self):
        X, y = separable_blobs(25, seed=4)
        model = train("knn", as_dataset(X, y), {"k": 1})
        assert np.array_equal(predict(model, X), y)

    def test_logistic_separable_accuracy(self):
        X, y = separable_blobs(100, seed=3)
        model = train("logistic_regression", as_dataset(X, y))
        acc = (predict(model, X) == y).mean()
        assert acc >= 0.99

    def test_scores_in_unit_interval(self):
        X, y = separable_blobs(40, seed=8)
        ds = as_dataset(X, y)
        for alg in ("logistic_regression", "knn", "gradient_boost", "random_forest", "neural_net"):
            model = train(alg, ds, FAST_HP.get(alg), seed=2)
            scores = model.estimator.predict_score(_apply_scaler(model.scaler, X))
            assert np.all((scores >= 0.0) & (scores <= 1.0)), alg

    def test_neural_threshold_rule(self):
        net = NeuralNetClassifier(hidden_width=2, epochs=1)
        d, h = 3, 2

        def rigged(p1):
            # zero hidden weights, output bias set so softmax class-1 prob is p1
            net.params = [np.zeros((d, h)), np.zeros(h), np.zeros((h, h)), np.zeros(h),
                          np.zeros((h, 2)), np.array([0.0, math.log(p1 / (1.0 - p1))])]
            return net.predict(np.zeros((1, d)))[0]

        assert rigged(0.31) == 1
        assert rigged(0.29) == 0

    @pytest.mark.parametrize("n", [1200, 28_500])
    def test_neural_scores_match_fresh_forward_pass(self, n):
        """``predict_score`` runs the fit's forward pass, bit for bit the
        formula with fresh temporaries and the general softmax; 28.5k rows
        is where another GEMM layout would change the bits."""
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 10))
        y = (rng.random(n) < 0.3).astype(int)
        net = NeuralNetClassifier(epochs=5).fit(X, y, seed=1)
        got, want = net.predict_score(X), brute_force_neural_net_score(net.params, X)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_monotone_invariance_of_trees(self):
        X_train, y_train = separable_blobs(60, seed=12)
        X_test, _ = separable_blobs(60, seed=13)
        transforms = [
            lambda v: v,
            lambda v: v**3,
            lambda v: np.exp(v / 2.0),
            lambda v: 2.0 * v + 1.0,
        ]
        for alg in ("decision_tree", "random_forest"):
            hp = FAST_HP.get(alg)
            reference = None
            for tf in transforms:
                model = train(alg, as_dataset(tf(X_train), y_train), hp, seed=21)
                got = predict(model, tf(X_test))
                if reference is None:
                    reference = got
                else:
                    assert np.array_equal(got, reference), alg

    def test_kmeans_recovers_axis_aligned_blobs(self):
        X, y = separable_blobs(80, seed=14)
        model = train("kmeans", as_dataset(X, y))
        acc = (predict(model, X) == y).mean()
        assert acc >= 0.95

    def test_standardize_switchable(self):
        X, y = separable_blobs(50, seed=15)
        model = train("knn", as_dataset(X, y), {"standardize": False})
        assert model.scaler is None
        assert model.metadata["hyperparams"]["standardize"] is False
        assert (predict(model, X) == y).mean() >= 0.95

    def test_tree_predictions_ignore_standardize(self):
        X, y = separable_blobs(50, seed=16)
        on = predict(train("decision_tree", as_dataset(X, y)), X)
        off = predict(train("decision_tree", as_dataset(X, y), {"standardize": False}), X)
        assert np.array_equal(on, off)
