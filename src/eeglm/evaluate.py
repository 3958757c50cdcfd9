"""Checkpoint evaluation: constrained label scoring and task-shaped reports."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError
from . import metrics
from .losses import span_rows
from .metrics import EvalBatch
from .synth import load_corpus
from .training import PipelineModel, PreparedSequence, load_model, prepare_sequences

BINARY_METRICS = ("balanced_accuracy", "auroc", "auc_pr")
MULTICLASS_METRICS = ("balanced_accuracy", "cohens_kappa", "weighted_f1")


def label_probabilities(
    model: PipelineModel, item: PreparedSequence, label_tokens: dict[str, int]
) -> dict[str, float]:
    """Next-token probabilities at the answer slot, renormalized over labels."""
    sem = model.refiner(item.h_text, item.z_q)
    slot = span_rows(item.seq, "answer")[:1]
    row = model.backbone.logits(item.seq, sem, rows=slot).data[0]
    scores = row[list(label_tokens.values())].astype(np.float64)  # renormalised in float64
    # libm's exp per label: numpy's float64 exp takes another path on AVX-512,
    # which would make report.json depend on the CPU
    scores = np.array([math.exp(s) for s in (scores - scores.max()).tolist()])
    scores /= scores.sum()
    return dict(zip(label_tokens, scores.tolist()))


def _binary_mapping(classes: list[str], y_labels: list[str]) -> list[str]:
    """Order a two-class task as [negative, positive] with the minority class
    positive; ties keep the configured class order."""
    counts = {c: y_labels.count(c) for c in classes}
    if counts[classes[0]] < counts[classes[1]]:
        return [classes[1], classes[0]]
    return list(classes)


def evaluate_checkpoint(
    checkpoint: str | Path, data_dir: str | Path, out_dir: str | Path | None = None
) -> dict:
    """Score every labeled container through the answer slot and report metrics."""
    model, meta = load_model(checkpoint)
    if meta.get("stage") != "sft":
        raise DataError(
            f"evaluation needs a supervised fine-tuning checkpoint, got stage "
            f"{meta.get('stage')!r}"
        )
    classes = list(model.cfg["data"]["classes"])
    corpus = load_corpus(data_dir, classes=classes)
    label_tokens = model.tokenizer.ensure_distinct(classes)

    per_sample = []
    for entry in corpus:  # one sample prepared, scored and dropped at a time
        (item,) = prepare_sequences(model, [entry], with_answer=True)
        probs = label_probabilities(model, item, label_tokens)
        ordered = np.array([probs[c] for c in classes])
        per_sample.append(
            {
                "name": item.name,
                "label": item.label,
                "prediction": classes[int(np.argmax(ordered))],
                "probabilities": {c: float(p) for c, p in zip(classes, ordered)},
            }
        )

    y_labels = [row["label"] for row in per_sample]
    if len(classes) == 2:
        order = _binary_mapping(classes, y_labels)
        positive = order[1]
    else:
        order = classes
        positive = None
    index = {c: i for i, c in enumerate(order)}
    y_true = np.array([index[row["label"]] for row in per_sample])
    y_pred = np.array([index[row["prediction"]] for row in per_sample])
    scores = np.array([[row["probabilities"][c] for c in order] for row in per_sample])
    batch = EvalBatch(y_true=y_true, y_pred=y_pred, scores=scores, n_classes=len(order))
    wanted = BINARY_METRICS if len(classes) == 2 else MULTICLASS_METRICS
    report = {
        "task": model.cfg["data"]["dataset_name"],
        "n_samples": len(per_sample),
        "classes": order,
        "metrics": {k: getattr(metrics, k)(batch) for k in wanted},
        "per_sample": per_sample,
    }
    if positive is not None:
        report["positive_class"] = positive
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as f:
            json.dump(report, f, indent=2)  # written as encoded, not built as one string first
        (out / "config.json").write_text(json.dumps(model.cfg, indent=2))
    return report
