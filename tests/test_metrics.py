"""Metric formulas against hand values and brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from eeglm.metrics import (
    EvalBatch,
    MetricError,
    auc_pr,
    auroc,
    balanced_accuracy,
    cohens_kappa,
    confusion_matrix,
    weighted_f1,
)


# ---------------------------------------------------------------------------
# brute-force oracles (independent implementations)
# ---------------------------------------------------------------------------

def oracle_bacc(y_true, y_pred):
    recalls = []
    for c in sorted(set(y_true.tolist())):
        mask = y_true == c
        recalls.append(np.mean(y_pred[mask] == c))
    return float(np.mean(recalls))


def oracle_auroc_trapezoid(y_true, scores):
    """Trapezoidal area under the ROC curve over all distinct thresholds."""
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1]])
    tpr, fpr = [], []
    n_pos = np.sum(y_true == 1)
    n_neg = np.sum(y_true == 0)
    for th in thresholds:
        pred = scores >= th
        tpr.append(np.sum(pred & (y_true == 1)) / n_pos)
        fpr.append(np.sum(pred & (y_true == 0)) / n_neg)
    tpr.append(1.0)
    fpr.append(1.0)
    area = 0.0
    for i in range(1, len(tpr)):
        area += (fpr[i] - fpr[i - 1]) * (tpr[i] + tpr[i - 1]) / 2.0
    return float(area)


def oracle_auc_pr_sweep(y_true, scores):
    """Step summation over every distinct score, vectorised independently."""
    order = np.argsort(-scores, kind="stable")
    y = y_true[order]
    s = scores[order]
    tp = np.cumsum(y == 1).astype(float)
    fp = np.cumsum(y == 0).astype(float)
    # keep only the last row of each tied-score block
    last_of_block = np.r_[s[1:] != s[:-1], True]
    tp, fp = tp[last_of_block], fp[last_of_block]
    precision = tp / (tp + fp)
    recall = tp / np.sum(y_true == 1)
    prev = np.r_[0.0, recall[:-1]]
    return float(np.sum(precision * (recall - prev)))


def oracle_kappa(y_true, y_pred):
    n = len(y_true)
    classes = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    p_o = np.mean(y_true == y_pred)
    p_e = 0.0
    for c in classes:
        p_e += (np.sum(y_true == c) / n) * (np.sum(y_pred == c) / n)
    return float((p_o - p_e) / (1 - p_e))


def oracle_weighted_f1(y_true, y_pred):
    n = len(y_true)
    out = 0.0
    for c in sorted(set(y_true.tolist())):
        tp = np.sum((y_true == c) & (y_pred == c))
        fp = np.sum((y_true != c) & (y_pred == c))
        fn = np.sum((y_true == c) & (y_pred != c))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out += (np.sum(y_true == c) / n) * f1
    return float(out)


# ---------------------------------------------------------------------------
# hand cases
# ---------------------------------------------------------------------------

def test_bacc_hand_case():
    # TP=9, FN=1 (class 1); TN=8, FP=2 (class 0)
    y_true = np.array([1] * 10 + [0] * 10)
    y_pred = np.array([1] * 9 + [0] + [0] * 8 + [1] * 2)
    assert abs(balanced_accuracy(EvalBatch(y_true, y_pred)) - 0.85) < 1e-15


def test_bacc_perfect():
    y = np.array([0, 1, 2, 0, 1, 2])
    assert balanced_accuracy(EvalBatch(y, y.copy())) == 1.0


def test_bacc_missing_class_error():
    with pytest.raises(MetricError) as exc:
        balanced_accuracy(EvalBatch(np.array([0, 0]), np.array([0, 1])))
    assert "1" in str(exc.value)


def test_auroc_perfect_separation():
    b = EvalBatch(np.array([1, 1, 0, 0]), np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.3, 0.1]))
    assert auroc(b) == 1.0


def test_auroc_three_quarters():
    b = EvalBatch(np.array([1, 0, 1, 0]), np.array([1, 0, 1, 0]), np.array([0.9, 0.8, 0.3, 0.1]))
    assert abs(auroc(b) - 0.75) < 1e-15


def test_auroc_all_ties():
    b = EvalBatch(np.array([1, 0, 1, 0]), np.array([0, 0, 0, 0]), np.full(4, 0.5))
    assert abs(auroc(b) - 0.5) < 1e-15


def test_auroc_single_class_error():
    with pytest.raises(MetricError):
        auroc(EvalBatch(np.array([1, 1]), np.array([1, 1]), np.array([0.2, 0.4])))


def test_auc_pr_perfect():
    b = EvalBatch(np.array([1, 1, 0, 0]), np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.3, 0.1]))
    assert auc_pr(b) == 1.0


def test_auc_pr_all_ties_equals_prevalence():
    y = np.array([1, 0, 0, 0])
    b = EvalBatch(y, np.zeros(4, dtype=int), np.full(4, 0.7))
    assert abs(auc_pr(b) - 0.25) < 1e-15


def test_auc_pr_no_positives_error():
    with pytest.raises(MetricError):
        auc_pr(EvalBatch(np.array([0, 0]), np.array([0, 0]), np.array([0.2, 0.4])))


def test_kappa_perfect():
    y = np.array([0, 1, 2, 1, 0, 2])
    assert cohens_kappa(EvalBatch(y, y.copy())) == 1.0


def test_kappa_chance_level():
    # predictions constant: p_o equals p_e exactly -> kappa 0
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([1, 1, 1, 1])
    assert abs(cohens_kappa(EvalBatch(y_true, y_pred))) < 1e-15


def test_kappa_degenerate_error():
    y = np.array([0, 0, 0])
    with pytest.raises(MetricError):
        cohens_kappa(EvalBatch(y, y.copy()))


def test_weighted_f1_perfect():
    y = np.array([0, 1, 2, 0])
    assert weighted_f1(EvalBatch(y, y.copy())) == 1.0


def test_weighted_f1_never_predicted_class():
    y_true = np.array([0, 0, 1, 2, 2, 2])
    y_pred = np.array([0, 0, 0, 2, 2, 2])  # class 1 never predicted
    got = weighted_f1(EvalBatch(y_true, y_pred))
    assert abs(got - oracle_weighted_f1(y_true, y_pred)) < 1e-12
    # class 1 contributes zero: removing its weight term changes nothing
    partial = (2 / 6) * (2 * 2 / (2 * 2 + 1 + 0)) + (3 / 6) * 1.0
    assert abs(got - partial) < 1e-12


# ---------------------------------------------------------------------------
# randomized oracle comparisons
# ---------------------------------------------------------------------------

def test_multiclass_metrics_match_oracles():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(20, 120))
        c = int(rng.integers(2, 5))
        y_true = rng.integers(0, c, size=n)
        # force every class present
        y_true[:c] = np.arange(c)
        y_pred = rng.integers(0, c, size=n)
        batch = EvalBatch(y_true, y_pred)
        assert abs(balanced_accuracy(batch) - oracle_bacc(y_true, y_pred)) < 1e-12
        assert abs(cohens_kappa(batch) - oracle_kappa(y_true, y_pred)) < 1e-12
        assert abs(weighted_f1(batch) - oracle_weighted_f1(y_true, y_pred)) < 1e-12


def test_binary_score_metrics_match_oracles():
    rng = np.random.default_rng(43)
    for trial in range(50):
        n = int(rng.integers(10, 80))
        y_true = rng.integers(0, 2, size=n)
        y_true[:2] = [0, 1]
        # quantized scores create ties on purpose
        scores = np.round(rng.random(n), 2)
        batch = EvalBatch(y_true, y_true.copy(), scores)
        assert abs(auroc(batch) - oracle_auroc_trapezoid(y_true, scores)) < 1e-12
        assert abs(auc_pr(batch) - oracle_auc_pr_sweep(y_true, scores)) < 1e-12


def test_metric_ranges_and_symmetries():
    rng = np.random.default_rng(44)
    n = 60
    y_true = rng.integers(0, 2, size=n)
    y_true[:2] = [0, 1]
    y_pred = rng.integers(0, 2, size=n)
    scores = rng.random(n)
    batch = EvalBatch(y_true, y_pred, scores)

    vals = {
        "bacc": balanced_accuracy(batch),
        "auroc": auroc(batch),
        "ap": auc_pr(batch),
        "f1": weighted_f1(batch),
    }
    for v in vals.values():
        assert 0.0 <= v <= 1.0
    assert -1.0 <= cohens_kappa(batch) <= 1.0

    # permutation invariance
    perm = rng.permutation(n)
    pbatch = EvalBatch(y_true[perm], y_pred[perm], scores[perm])
    assert abs(auroc(pbatch) - vals["auroc"]) < 1e-12
    assert abs(auc_pr(pbatch) - vals["ap"]) < 1e-12
    assert abs(balanced_accuracy(pbatch) - vals["bacc"]) < 1e-12

    # duplication invariance
    dbatch = EvalBatch(np.tile(y_true, 2), np.tile(y_pred, 2), np.tile(scores, 2))
    assert abs(auroc(dbatch) - vals["auroc"]) < 1e-12
    assert abs(auc_pr(dbatch) - vals["ap"]) < 1e-12
    assert abs(weighted_f1(dbatch) - vals["f1"]) < 1e-12

    # AUROC invariance under strictly increasing transforms
    tbatch = EvalBatch(y_true, y_pred, np.exp(3.0 * scores))
    assert abs(auroc(tbatch) - vals["auroc"]) < 1e-12


def test_configured_class_count_makes_the_outcome_depend_on_true_labels_alone():
    # three configured classes, data holding two: predicting the absent
    # class changes the scores, not whether the batch scores
    y_true = np.array([0, 0, 1, 1])
    for y_pred, bacc in (([0, 0, 1, 1], 1.0), ([0, 2, 1, 1], 0.75)):
        batch = EvalBatch(y_true, np.array(y_pred), n_classes=3)
        assert batch.n_classes == 3
        assert confusion_matrix(batch).shape == (3, 3)
        assert balanced_accuracy(batch) == bacc
        assert weighted_f1(batch) == pytest.approx(oracle_weighted_f1(y_true, np.array(y_pred)))
        assert cohens_kappa(batch) == pytest.approx(oracle_kappa(y_true, np.array(y_pred)))


def test_labels_outside_the_classes_rejected():
    with pytest.raises(MetricError, match=r"\[3\]"):
        EvalBatch(np.array([0, 1]), np.array([0, 3]), n_classes=3)
    with pytest.raises(MetricError, match=r"\[2\]"):
        EvalBatch(np.array([2, 1]), np.array([0, 1]), n_classes=2)


def test_score_rows_must_sum_to_one():
    with pytest.raises(MetricError):
        EvalBatch(np.array([0, 1]), np.array([0, 1]), np.array([[0.5, 0.4], [0.2, 0.8]]))


def test_confusion_matrix_counts():
    b = EvalBatch(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]))
    expect = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(confusion_matrix(b), expect)
