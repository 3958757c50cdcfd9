"""Evaluation metrics: balanced accuracy, AUROC, AUC-PR, Cohen's kappa,
weighted F1. All are pure functions over integer label arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


class MetricError(DataError):
    """Metric preconditions violated (label outside the classes, degenerate batch...)."""


@dataclass(frozen=True)
class EvalBatch:
    """True labels, predicted labels and optional per-class scores.

    Labels index `n_classes` classes: the configured count when given, else
    the classes `y_true` names (its largest label plus one). A label outside
    them is refused, so whether a batch scores depends on `y_true` and the
    count alone, never on which classes the model happens to predict."""

    y_true: np.ndarray
    y_pred: np.ndarray
    scores: np.ndarray | None = field(default=None)
    n_classes: int | None = None

    def __post_init__(self):
        yt = np.asarray(self.y_true, dtype=np.int64)
        yp = np.asarray(self.y_pred, dtype=np.int64)
        if yt.ndim != 1 or yp.shape != yt.shape:
            raise MetricError(f"label arrays must be equal-length 1-D, got {yt.shape} vs {yp.shape}")
        if yt.size == 0:
            raise MetricError("empty evaluation batch")
        if yt.min() < 0 or yp.min() < 0:
            raise MetricError("labels must be non-negative integers")
        n = int(yt.max()) + 1 if self.n_classes is None else int(self.n_classes)
        labels = np.concatenate([yt, yp])
        outside = np.unique(labels[labels >= n])
        if outside.size:
            raise MetricError(f"labels {outside.tolist()} outside the {n} classes 0..{n - 1}")
        object.__setattr__(self, "y_true", yt)
        object.__setattr__(self, "y_pred", yp)
        object.__setattr__(self, "n_classes", n)
        if self.scores is not None:
            sc = np.asarray(self.scores, dtype=np.float64)
            if sc.ndim == 2:
                if sc.shape[0] != yt.size:
                    raise MetricError(f"score rows {sc.shape[0]} != batch size {yt.size}")
                sums = sc.sum(axis=1)
                if np.any(np.abs(sums - 1.0) > 1e-6):
                    raise MetricError("per-class score rows must sum to 1 within 1e-6")
            elif sc.ndim == 1:
                if sc.shape[0] != yt.size:
                    raise MetricError(f"score length {sc.shape[0]} != batch size {yt.size}")
            else:
                raise MetricError(f"scores must be 1-D or 2-D, got {sc.ndim}-D")
            object.__setattr__(self, "scores", sc)


def confusion_matrix(batch: EvalBatch) -> np.ndarray:
    c = batch.n_classes
    mat = np.zeros((c, c), dtype=np.int64)
    np.add.at(mat, (batch.y_true, batch.y_pred), 1)
    return mat


def balanced_accuracy(batch: EvalBatch) -> float:
    """Macro-average of per-class recall over the classes `y_true` holds (a
    class without true samples has no recall)."""
    mat = confusion_matrix(batch)
    support = mat.sum(axis=1)
    present = support > 0
    return float(np.mean(np.diag(mat)[present] / support[present]))


def _binary_scores(batch: EvalBatch, op: str) -> tuple[np.ndarray, np.ndarray]:
    if batch.scores is None:
        raise MetricError(f"{op} needs scores")
    sc = batch.scores
    if sc.ndim == 2:
        if sc.shape[1] != 2:
            raise MetricError(f"{op} needs binary scores, got {sc.shape[1]} classes")
        sc = sc[:, 1]
    y = batch.y_true
    if set(np.unique(y)) - {0, 1}:
        raise MetricError(f"{op} needs binary labels in {{0,1}}")
    return y, sc


def auroc(batch: EvalBatch) -> float:
    """Mann-Whitney pairwise formulation: ties between classes count 1/2."""
    y, sc = _binary_scores(batch, "auroc")
    pos = sc[y == 1]
    neg = sc[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise MetricError("auroc: both classes must be present")
    # rank-based O(n log n) Mann-Whitney with midranks for ties
    allsc = np.concatenate([pos, neg])
    order = np.argsort(allsc, kind="stable")
    ranks = np.empty(allsc.size, dtype=np.float64)
    sorted_sc = allsc[order]
    i = 0
    while i < sorted_sc.size:
        j = i
        while j + 1 < sorted_sc.size and sorted_sc[j + 1] == sorted_sc[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum_pos = ranks[: pos.size].sum()
    u = rank_sum_pos - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def auc_pr(batch: EvalBatch) -> float:
    """Average precision: sum of precision * recall increments over
    descending distinct score thresholds."""
    y, sc = _binary_scores(batch, "auc_pr")
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise MetricError("auc_pr: no positive samples")
    thresholds = np.unique(sc)[::-1]
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        pred_pos = sc >= th
        tp = int(np.sum(pred_pos & (y == 1)))
        fp = int(np.sum(pred_pos & (y == 0)))
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return float(ap)


def cohens_kappa(batch: EvalBatch) -> float:
    """(p_o - p_e) / (1 - p_e) with chance agreement from the marginals."""
    mat = confusion_matrix(batch).astype(np.float64)
    n = mat.sum()
    p_o = np.trace(mat) / n
    p_e = float(np.sum(mat.sum(axis=1) * mat.sum(axis=0)) / (n * n))
    if p_e >= 1.0:
        raise MetricError("cohens_kappa: degenerate marginals (p_e == 1)")
    return float((p_o - p_e) / (1.0 - p_e))


def weighted_f1(batch: EvalBatch) -> float:
    """Support-weighted mean of per-class F1 with the 0/0 -> 0 convention; a
    class without true samples weighs nothing."""
    mat = confusion_matrix(batch).astype(np.float64)
    n = mat.sum()
    total = 0.0
    for c in range(batch.n_classes):
        tp = mat[c, c]
        fp = mat[:, c].sum() - tp
        fn = mat[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        if denom == 0.0:
            f1 = 0.0
        else:
            f1 = 2 * tp / denom
        total += (mat[c, :].sum() / n) * f1
    return float(total)
