import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from fedkdx.metrics import (
    EvalBatch,
    UndefinedMetricError,
    accuracy,
    confusion_matrix,
    macro_auc_ovr,
    macro_f1,
    macro_recall,
)


def batch_from_preds(preds, labels, num_classes):
    """One-hot-ish score rows realizing the wanted argmax."""
    scores = np.full((len(preds), num_classes), 0.1 / (num_classes - 1))
    scores[np.arange(len(preds)), preds] = 0.9
    return EvalBatch(scores, np.asarray(labels))


def test_validation_rejects_malformed_batches():
    ok = np.array([[0.6, 0.4], [0.3, 0.7]])
    EvalBatch(ok, np.array([0, 1]))
    with pytest.raises(ValueError):
        EvalBatch(ok * 1.01, np.array([0, 1]))           # rows off by 1%
    with pytest.raises(ValueError):
        EvalBatch(ok, np.array([0.0, 1.0]))              # float labels
    with pytest.raises(ValueError):
        EvalBatch(ok, np.array([0, 2]))                  # label out of range
    with pytest.raises(ValueError):
        EvalBatch(np.array([[np.nan, 1.0]]), np.array([0]))
    with pytest.raises(ValueError):
        EvalBatch(np.ones((2, 1)), np.array([0, 0]))     # single column
    with pytest.raises(ValueError):
        EvalBatch(ok, np.array([0, 1, 0]))               # length mismatch


def test_row_sum_tolerance_is_one_microunit():
    scores = np.array([[0.6, 0.4 + 9e-7], [0.3, 0.7]])
    EvalBatch(scores, np.array([0, 1]))  # inside the tolerance
    with pytest.raises(ValueError):
        EvalBatch(np.array([[0.6, 0.4 + 2e-6], [0.3, 0.7]]), np.array([0, 1]))


def test_argmax_prefers_the_lowest_class_on_ties():
    b = EvalBatch(np.array([[0.4, 0.4, 0.2]]), np.array([1]))
    assert b.predictions().tolist() == [0]


def test_confusion_and_accuracy_pinned():
    b = batch_from_preds([0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 1, 1], 2)
    assert confusion_matrix(b).tolist() == [[2, 1], [1, 2]]
    assert abs(accuracy(b) - 2.0 / 3.0) < 1e-15
    assert abs(macro_f1(b) - 2.0 / 3.0) < 1e-15
    assert abs(macro_recall(b) - 2.0 / 3.0) < 1e-15


def test_macro_scores_handle_unpredicted_and_absent_classes():
    # three declared classes; nothing is ever class 2, and class 1 is
    # never predicted
    b = batch_from_preds([0, 0, 0], [0, 0, 1], 3)
    # class 0: precision 2/3, recall 1 -> f1 4/5; class 1: zero both ways;
    # class 2: absent from labels and predictions, so excluded
    assert abs(macro_f1(b) - 0.4) < 1e-15
    assert abs(macro_recall(b) - 0.5) < 1e-15


def test_predicted_only_class_counts_toward_the_macro():
    # class 2 never occurs but is predicted once: recall undefined -> 0
    b = batch_from_preds([0, 2], [0, 1], 3)
    # class 0: f1 1; class 1: 0; class 2: precision 0 -> f1 0
    assert abs(macro_f1(b) - 1.0 / 3.0) < 1e-15


# --------------------------------------------------------------------- auc

def naive_auc(scores, positives):
    """Pair-counting oracle: ties count one half."""
    pos = scores[positives]
    neg = scores[~positives]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_pinned_cases():
    perfect = EvalBatch(np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]]),
                        np.array([0, 0, 1, 1]))
    assert macro_auc_ovr(perfect) == 1.0
    inverted = EvalBatch(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([1, 0]))
    assert macro_auc_ovr(inverted) == 0.0
    uninformative = EvalBatch(np.full((4, 2), 0.5), np.array([0, 1, 0, 1]))
    assert macro_auc_ovr(uninformative) == 0.5


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, c = int(rng.integers(4, 40)), int(rng.integers(2, 5))
        scores = rng.dirichlet(np.ones(c), size=n)
        # quantize to force score ties through the midrank path
        scores = np.round(scores, 1)
        scores = scores / scores.sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, size=n)
        if len(np.unique(labels)) < 2:
            continue
        b = EvalBatch(scores, labels)
        per_class = [naive_auc(scores[:, k], labels == k)
                     for k in range(c)
                     if 0 < (labels == k).sum() < n]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = macro_auc_ovr(b)
        assert abs(got - np.mean(per_class)) < 1e-12


def midrank_macro_auc(scores, labels):
    """The rank-statistic form: (sum of the positives' midranks minus
    n_pos(n_pos+1)/2) / (n_pos n_neg), averaged over the defined classes."""
    aucs = []
    for k in range(scores.shape[1]):
        pos = labels == k
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos and n_neg:
            ranks = rankdata(scores[:, k])
            aucs.append((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.mean(aucs))


def test_auc_equals_the_midrank_form_bit_for_bit():
    # both forms divide the same exact half-integer U by the same exact
    # pair count, so the floats must be equal, not merely close
    rng = np.random.default_rng(7)
    cases = [(int(rng.integers(2, 400)), int(rng.integers(2, 7)), tied)
             for tied in (False, True) for _ in range(150)]
    cases += [(10_000, 6, False), (10_000, 6, True)]
    for n, c, tied in cases:
        scores = rng.dirichlet(np.full(c, 0.5), size=n)
        if tied:  # one decimal leaves at most a few dozen values per column
            scores = np.round(scores, 1)
            scores = scores / scores.sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, size=n)
        labels[:2] = [0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = macro_auc_ovr(EvalBatch(scores, labels))
        assert got == midrank_macro_auc(scores, labels), (n, c, tied)


def test_auc_warns_and_excludes_absent_classes():
    b = batch_from_preds([0, 1, 0], [0, 1, 0], 3)
    with pytest.warns(UserWarning, match="excluded from macro AUC"):
        got = macro_auc_ovr(b)
    only_present = EvalBatch(b.scores[:, :2] / b.scores[:, :2].sum(1, keepdims=True),
                             b.labels)
    assert abs(got - macro_auc_ovr(only_present)) < 1e-12


def test_auc_undefined_for_single_class_labels():
    b = batch_from_preds([0, 0], [0, 0], 2)
    with pytest.warns(UserWarning):
        with pytest.raises(UndefinedMetricError):
            macro_auc_ovr(b)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**31))
def test_metrics_stay_in_the_unit_interval(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(2, 30)), int(rng.integers(2, 6))
    b = EvalBatch(rng.dirichlet(np.ones(c), size=n), rng.integers(0, c, size=n))
    for metric in (accuracy, macro_f1, macro_recall):
        v = metric(b)
        assert 0.0 <= v <= 1.0
    conf = confusion_matrix(b)
    assert conf.sum() == n
    assert conf.shape == (c, c)
