"""Classification metrics over score batches.

Conventions are pinned here rather than inherited from any library:
macro means skip classes absent from both labels and predictions, an
unpredicted class has precision 0, and one-vs-rest AUC counts the
(positive, negative) score pairs ranked right, a tie counting one half.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-6


class UndefinedMetricError(ValueError):
    """No class admits the requested metric."""


@dataclass
class EvalBatch:
    """Probability rows plus integer labels; validated on construction."""

    scores: np.ndarray  # (N, C)
    labels: np.ndarray  # (N,)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.scores.ndim != 2 or self.scores.shape[0] < 1 or self.scores.shape[1] < 2:
            raise ValueError(f"scores must be (N>=1, C>=2), got {self.scores.shape}")
        if self.labels.shape != (self.scores.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.scores.shape[0]} rows")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.labels.min() < 0 or self.labels.max() >= self.scores.shape[1]:
            raise ValueError("labels out of range for the score columns")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite")
        rows = self.scores.sum(axis=1)
        worst = np.abs(rows - 1.0).max()
        if worst > ROW_SUM_TOL:
            raise ValueError(f"score rows must sum to 1 within {ROW_SUM_TOL}, worst off by {worst:.3g}")

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1]

    def predictions(self) -> np.ndarray:
        # argmax takes the lowest index on ties
        return np.argmax(self.scores, axis=1)


def accuracy(b: EvalBatch) -> float:
    return float(np.mean(b.predictions() == b.labels))


def confusion_matrix(b: EvalBatch) -> np.ndarray:
    """(C, C) counts, rows = true class, columns = predicted class."""
    c = b.num_classes
    pred = b.predictions()
    return np.bincount(b.labels * c + pred, minlength=c * c).reshape(c, c)


def _per_class_prf(conf: np.ndarray):
    tp = np.diag(conf).astype(np.float64)
    predicted = conf.sum(axis=0).astype(np.float64)
    actual = conf.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros_like(tp), where=denom > 0)
    present = (actual > 0) | (predicted > 0)
    return precision, recall, f1, present


def macro_recall(b: EvalBatch) -> float:
    _, recall, _, present = _per_class_prf(confusion_matrix(b))
    return float(recall[present].mean())


def macro_f1(b: EvalBatch) -> float:
    _, _, f1, present = _per_class_prf(confusion_matrix(b))
    return float(f1[present].mean())


def macro_auc_ovr(b: EvalBatch) -> float:
    """One-vs-rest AUC per class as the Mann-Whitney pair count (a tie counts
    one half), averaged over the classes with both positives and negatives."""
    aucs = []
    for c in range(b.num_classes):
        pos = b.labels == c
        p, neg = b.scores[pos, c], np.sort(b.scores[~pos, c])
        if p.size == 0 or neg.size == 0:
            warnings.warn(
                f"class {c} has no {'positives' if p.size == 0 else 'negatives'}; "
                f"excluded from macro AUC", stacklevel=2)
            continue
        # negatives below p count 2 and ties 1: an exact integer 2U
        twice_u = (np.searchsorted(neg, p, "left") + np.searchsorted(neg, p, "right")).sum()
        aucs.append(twice_u / (2.0 * p.size * neg.size))
    if not aucs:
        raise UndefinedMetricError(
            "every class lacks positives or negatives; macro AUC undefined")
    return float(np.mean(aucs))
