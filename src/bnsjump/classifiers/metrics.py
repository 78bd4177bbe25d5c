"""Per-class precision/recall/F1/support reports for binary targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidParameterError


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    # names of ratios that hit 0/0 and were reported as 0.0
    zero_division: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassReport:
    """Per-class metrics plus overall accuracy for one prediction set."""

    class0: ClassMetrics
    class1: ClassMetrics
    accuracy: float
    n: int

    def supports(self) -> tuple[int, int]:
        return self.class0.support, self.class1.support


def _one_class(pred: np.ndarray, truth: np.ndarray, c: int) -> ClassMetrics:
    tp = int(np.sum((pred == c) & (truth == c)))
    fp = int(np.sum((pred == c) & (truth != c)))
    fn = int(np.sum((pred != c) & (truth == c)))
    flags = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        flags.append("precision")
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall = 0.0
        flags.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        flags.append("f1")
    return ClassMetrics(precision=precision, recall=recall, f1=f1,
                        support=tp + fn, zero_division=tuple(flags))


def evaluate(predictions, truth) -> ClassReport:
    """Score binary predictions against the true labels.

    precision_c = TP_c / (TP_c + FP_c), recall_c = TP_c / (TP_c + FN_c),
    f1 their harmonic mean; 0/0 ratios are reported as 0.0 and flagged.
    """
    pred = np.asarray(predictions, dtype=int)
    true = np.asarray(truth, dtype=int)
    if pred.shape != true.shape:
        raise InvalidParameterError(f"length mismatch: {pred.shape} vs {true.shape}")
    accuracy = float(np.mean(pred == true)) if len(true) else 0.0
    return ClassReport(class0=_one_class(pred, true, 0), class1=_one_class(pred, true, 1),
                       accuracy=accuracy, n=len(true))
