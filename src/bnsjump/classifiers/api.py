"""Uniform train/predict facade over the from-scratch learners.

Every algorithm trains deterministically from (data, hyperparams, seed).
Per-feature z-scoring fitted on the training rows is applied by default
(switch off with the ``standardize`` hyperparameter); it materially
affects the distance- and margin-based learners and is recorded in the
model metadata.  A training set containing a single class yields a
constant predictor flagged as degenerate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError
from .bayes import GaussianNaiveBayes
from .ensemble import GradientBoostClassifier, RandomForestClassifier
from .linear import LinearSVMClassifier, LogisticRegressionGD
from .neighbors import KMeansLabeler, KNearestClassifier
from .neural import NeuralNetClassifier
from .tree import DecisionTreeClassifier

# algorithm -> (estimator class, whether its fit takes the seed); each
# constructor takes the algorithm's hyperparameters but `standardize` by name
LEARNERS = {
    "logistic_regression": (LogisticRegressionGD, False),
    "svm_linear": (LinearSVMClassifier, False),
    "knn": (KNearestClassifier, False),
    "kmeans": (KMeansLabeler, True),
    "naive_bayes_gaussian": (GaussianNaiveBayes, False),
    "gradient_boost": (GradientBoostClassifier, False),
    "decision_tree": (DecisionTreeClassifier, False),
    "random_forest": (RandomForestClassifier, True),
    "neural_net": (NeuralNetClassifier, True),
}
ALGORITHM_IDS = tuple(LEARNERS)

DEFAULT_HYPERPARAMS: dict[str, dict] = {
    "logistic_regression": {"learning_rate": 0.1, "epochs": 500, "l2": 1e-4, "standardize": True},
    "svm_linear": {"c": 1.0, "epochs": 500, "standardize": True},
    "knn": {"k": 5, "standardize": True},
    "kmeans": {"k": 2, "iterations": 100, "restarts": 10, "standardize": True},
    "naive_bayes_gaussian": {"variance_floor": 1e-9, "standardize": True},
    "gradient_boost": {"rounds": 100, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 1,
                       "standardize": True},
    "decision_tree": {"max_depth": 6, "min_leaf": 5, "standardize": True},
    "random_forest": {"trees": 100, "max_depth": 6, "min_leaf": 5, "standardize": True},
    "neural_net": {"hidden_width": 32, "epochs": 200, "learning_rate": 0.01, "threshold": 0.3,
                   "standardize": True},
}


# the integer hyperparameters that count something a learner needs at least one of
AT_LEAST_ONE = ("k", "trees", "restarts", "hidden_width")


def resolve_hyperparams(algorithm: str, overrides: dict | None = None) -> dict:
    """Merge overrides into the documented defaults.  Unknown keys are
    rejected, and so is an override of an integer default that is not an
    integer (a bool is not), or one of ``AT_LEAST_ONE`` below 1."""
    if algorithm not in DEFAULT_HYPERPARAMS:
        raise InvalidParameterError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_IDS}")
    merged = dict(DEFAULT_HYPERPARAMS[algorithm])
    for key, value in (overrides or {}).items():
        if key not in merged:
            raise InvalidParameterError(f"unknown hyperparameter {key!r} for {algorithm}")
        if type(merged[key]) is int and (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                                         or (key in AT_LEAST_ONE and value < 1)):
            rule = "an integer >= 1" if key in AT_LEAST_ONE else "an integer"
            raise InvalidParameterError(f"{algorithm}.{key} must be {rule}, got {value!r}")
        merged[key] = value
    return merged


class _ConstantPredictor:
    """Fallback when training saw only one class."""

    def __init__(self, label: int):
        self.label = label

    def predict(self, X) -> np.ndarray:
        return np.full(len(X), self.label, dtype=int)


@dataclass
class Model:
    """A trained classifier plus the scaler and provenance metadata."""

    algorithm: str
    estimator: object
    scaler: tuple[np.ndarray, np.ndarray] | None
    metadata: dict

    @property
    def degenerate(self) -> bool:
        return bool(self.metadata.get("degenerate", False))


def _fit_scaler(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def _apply_scaler(scaler, X: np.ndarray) -> np.ndarray:
    if scaler is None:
        return X
    mean, std = scaler
    return (X - mean) / std


def train(algorithm: str, train_set, hyperparams: dict | None = None, seed=0) -> Model:
    """Fit one algorithm on a labeled dataset.

    ``train_set`` needs ``features`` (n x d) and ``theta`` (n,) attributes.
    Deterministic given (algorithm, data, hyperparams, seed).
    """
    hp = resolve_hyperparams(algorithm, hyperparams)
    X = np.asarray(train_set.features, dtype=float)
    y = np.asarray(train_set.theta, dtype=int)
    if X.ndim != 2 or len(X) == 0:
        raise InvalidParameterError("training set must contain at least one row")
    metadata = {"algorithm": algorithm, "seed": seed, "n_rows": int(len(X)),
                "n_features": int(X.shape[1]), "hyperparams": dict(hp)}
    classes = np.unique(y)
    if len(classes) == 1:
        label = int(classes[0])
        warnings.warn(f"training set for {algorithm} contains only class {label}; "
                      "falling back to a constant predictor")
        metadata["degenerate"] = True
        return Model(algorithm=algorithm, estimator=_ConstantPredictor(label),
                     scaler=None, metadata=metadata)

    scaler = _fit_scaler(X) if hp["standardize"] else None
    Xs = _apply_scaler(scaler, X)

    cls, takes_seed = LEARNERS[algorithm]
    est = cls(**{name: value for name, value in hp.items() if name != "standardize"})
    est = est.fit(Xs, y, seed=seed) if takes_seed else est.fit(Xs, y)
    return Model(algorithm=algorithm, estimator=est, scaler=scaler, metadata=metadata)


def _check_width(model: Model, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.metadata["n_features"]:
        raise InvalidParameterError(
            f"feature width {X.shape} incompatible with trained width {model.metadata['n_features']}")
    return X


def predict(model: Model, features) -> np.ndarray:
    """Binary labels for a feature matrix of the training width."""
    X = _check_width(model, features)
    if len(X) == 0:
        return np.empty(0, dtype=int)
    return model.estimator.predict(_apply_scaler(model.scaler, X)).astype(int)
