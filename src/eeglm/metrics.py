"""Evaluation metrics: balanced accuracy, AUROC, AUC-PR, Cohen's kappa,
weighted F1. All are pure functions over integer label arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


class MetricError(DataError):
    """Metric preconditions violated (missing class, degenerate batch...)."""


@dataclass(frozen=True)
class EvalBatch:
    """True labels, predicted labels and optional per-class scores."""

    y_true: np.ndarray
    y_pred: np.ndarray
    scores: np.ndarray | None = field(default=None)

    def __post_init__(self):
        yt = np.asarray(self.y_true, dtype=np.int64)
        yp = np.asarray(self.y_pred, dtype=np.int64)
        if yt.ndim != 1 or yp.shape != yt.shape:
            raise MetricError(f"label arrays must be equal-length 1-D, got {yt.shape} vs {yp.shape}")
        if yt.size == 0:
            raise MetricError("empty evaluation batch")
        if yt.min() < 0 or yp.min() < 0:
            raise MetricError("labels must be non-negative integers")
        object.__setattr__(self, "y_true", yt)
        object.__setattr__(self, "y_pred", yp)
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

    @property
    def n_classes(self) -> int:
        return int(max(self.y_true.max(), self.y_pred.max())) + 1


def confusion_matrix(batch: EvalBatch) -> np.ndarray:
    c = batch.n_classes
    mat = np.zeros((c, c), dtype=np.int64)
    np.add.at(mat, (batch.y_true, batch.y_pred), 1)
    return mat


def _require_all_classes(batch: EvalBatch, op: str) -> np.ndarray:
    classes = np.arange(batch.n_classes)
    present = np.isin(classes, batch.y_true)
    if not present.all():
        missing = classes[~present].tolist()
        raise MetricError(f"{op}: class {missing} absent from true labels")
    return classes


def balanced_accuracy(batch: EvalBatch) -> float:
    """Macro-average of per-class recall."""
    _require_all_classes(batch, "balanced_accuracy")
    mat = confusion_matrix(batch)
    recalls = np.diag(mat) / mat.sum(axis=1)
    return float(np.mean(recalls))


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
    """Support-weighted mean of per-class F1 with the 0/0 -> 0 convention."""
    classes = _require_all_classes(batch, "weighted_f1")
    mat = confusion_matrix(batch).astype(np.float64)
    n = mat.sum()
    total = 0.0
    for c in classes:
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
