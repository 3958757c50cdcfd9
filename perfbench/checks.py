"""Output checks. Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

METRICS_HEADER = ["step", "loss_total", "loss_text", "loss_eeg", "loss_orth", "lr"]
IDENTITY_TOL = 1e-9
BALANCED_ACCURACY_FLOOR = 0.9


def metrics_csv(path: Path, lambda_orth: float, expected_steps: int) -> list[str]:
    """Every row finite, steps contiguous from 1, and
    loss_total == loss_text + loss_eeg + lambda * loss_orth within 1e-9."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        return [f"{path}: cannot read ({e})"]
    if not rows or rows[0] != METRICS_HEADER:
        return [f"{path}: header is {rows[0] if rows else None}, want {METRICS_HEADER}"]
    problems = []
    body = rows[1:]
    if len(body) != expected_steps:
        problems.append(f"{path}: {len(body)} rows, want {expected_steps}")
    for n, row in enumerate(body, start=1):
        where = f"{path}: row {n}"
        try:
            step = int(row[0])
            total, text, eeg, orth, lr = (float(v) for v in row[1:])
        except (ValueError, IndexError):
            problems.append(f"{where}: not a step and five numbers: {row}")
            continue
        if step != n:
            problems.append(f"{where}: step {step}, want {n}")
        if not all(math.isfinite(v) for v in (total, text, eeg, orth, lr)):
            problems.append(f"{where}: non-finite value {row}")
            continue
        gap = abs(total - (text + eeg + lambda_orth * orth))
        if gap > IDENTITY_TOL:
            problems.append(f"{where}: loss_total differs from its parts by {gap:.3g}")
    return problems


def tokens(seq, num_codes: int, channels: int, patches: int, name: str) -> list[str]:
    """Indices in [0, num_codes) with the expected (channels, patches) extents."""
    problems = []
    if (seq.channels, seq.patches) != (channels, patches):
        problems.append(
            f"{name}: token extents {(seq.channels, seq.patches)}, want {(channels, patches)}"
        )
    idx = seq.indices
    if idx.size != channels * patches:
        problems.append(f"{name}: {idx.size} tokens, want {channels * patches}")
    if idx.size and (idx.min() < 0 or idx.max() >= num_codes):
        problems.append(f"{name}: token index outside [0, {num_codes})")
    return problems


def eval_report(report: dict, floor: float | None) -> list[str]:
    """Finite per-sample probabilities summing to 1, and the accuracy floor."""
    problems = []
    for row in report["per_sample"]:
        probs = list(row["probabilities"].values())
        if not all(math.isfinite(p) for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            problems.append(f"eval {row['name']}: probabilities {probs} do not sum to 1")
    ba = report["metrics"]["balanced_accuracy"]
    if floor is not None and not ba >= floor:
        problems.append(f"balanced_accuracy {ba} is below the floor {floor}")
    return problems


def same(values: list, what: str) -> list[str]:
    """All repetitions gave the same value (same seed, same bytes)."""
    if len(set(values)) > 1:
        return [f"{what} differs across repetitions with the same seed: {values}"]
    return []


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under root."""
    h = hashlib.sha256()
    for p in sorted(q for q in Path(root).rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()
