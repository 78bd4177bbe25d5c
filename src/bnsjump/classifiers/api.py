"""Uniform train/predict facade over the from-scratch learners.

Every algorithm trains deterministically from (data, hyperparams, seed).
Per-feature z-scoring fitted on the training rows is applied by default
(switch off with the ``standardize`` hyperparameter); it materially
affects the distance- and margin-based learners and is recorded in the
model metadata.  A training set containing a single class yields a
constant predictor flagged as degenerate.

``train`` and ``predict`` are the only code that converts and checks
inputs: they hand every learner a 2-D float64 ``X`` (at ``predict``, of the
trained width) and, at ``train``, an int ``y``, and the learners use them as
given.
"""

from __future__ import annotations

import inspect
import math
import numbers
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

# algorithm -> estimator class.  A class's constructor keywords are the
# algorithm's hyperparameters, and their defaults are the documented defaults.
LEARNERS = {
    "logistic_regression": LogisticRegressionGD,
    "svm_linear": LinearSVMClassifier,
    "knn": KNearestClassifier,
    "kmeans": KMeansLabeler,
    "naive_bayes_gaussian": GaussianNaiveBayes,
    "gradient_boost": GradientBoostClassifier,
    "decision_tree": DecisionTreeClassifier,
    "random_forest": RandomForestClassifier,
    "neural_net": NeuralNetClassifier,
}
ALGORITHM_IDS = tuple(LEARNERS)

DEFAULT_HYPERPARAMS: dict[str, dict] = {
    algorithm: {name: p.default for name, p in inspect.signature(cls).parameters.items()}
    | {"standardize": True}
    for algorithm, cls in LEARNERS.items()
}

# the numeric hyperparameters that may be 0; every other one must be positive
MAY_BE_ZERO = ("l2", "max_depth", "min_leaf")


def _checked(algorithm: str, key: str, default, value):
    """``value`` as its default's type, if it may override ``default``: a
    bool for a bool, and for a number a finite one of its type (a bool is
    none) above 0, or from 0 for ``MAY_BE_ZERO``."""
    zero = key in MAY_BE_ZERO
    if isinstance(default, bool):
        ok, rule = isinstance(value, bool), "true or false"
    else:
        kind = numbers.Integral if isinstance(default, int) else numbers.Real
        ok = isinstance(value, kind) and not isinstance(value, bool) and (
            0 <= value < math.inf if zero else 0 < value < math.inf)
        rule = (f"an integer >= {0 if zero else 1}" if kind is numbers.Integral
                else f"a finite number {'>=' if zero else '>'} 0")
    if ok:
        return type(default)(value)
    raise InvalidParameterError(f"{algorithm}.{key} must be {rule}, got {value}")


def resolve_hyperparams(algorithm: str, overrides: dict | None = None) -> dict:
    """Merge overrides into the defaults.  Unknown keys are rejected, and
    so is a value ``_checked`` refuses."""
    if algorithm not in DEFAULT_HYPERPARAMS:
        raise InvalidParameterError(f"unknown algorithm {algorithm}; "
                                    f"expected one of {', '.join(ALGORITHM_IDS)}")
    merged = dict(DEFAULT_HYPERPARAMS[algorithm])
    for key, value in (overrides or {}).items():
        if key not in merged:
            raise InvalidParameterError(f"unknown hyperparameter {key} for {algorithm}")
        merged[key] = _checked(algorithm, key, merged[key], value)
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

    cls = LEARNERS[algorithm]
    est = cls(**{name: value for name, value in hp.items() if name != "standardize"})
    takes_seed = "seed" in inspect.signature(cls.fit).parameters
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
    return model.estimator.predict(_apply_scaler(model.scaler, X)).astype(int)
