"""Codebook quantization with a straight-through gradient estimator.

Encoder features (width E) pass through a learned linear bridge to the
codebook width D, snap to their nearest codebook row (lowest index on
ties), and return through a second bridge to E. The commitment loss
(`eeglm.losses.loss_dsha`) carries gradients to both the codebook (through
the selected rows) and the encoder (through the pre-quantization features).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, ShapeError
from .nn import Linear, Module

KMEANS_ITERS = 10  # Lloyd iterations of the codebook warm start


@dataclass(frozen=True)
class QuantizerConfig:
    num_codes: int
    code_dim: int
    beta: float
    revival_epochs: int


@dataclass(frozen=True)
class TokenSequence:
    """Flat token indices with their (channels, patches) provenance."""

    indices: np.ndarray
    channels: int
    patches: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size != self.channels * self.patches:
            raise DataError(
                f"token count {idx.size} != C*P = {self.channels * self.patches}"
            )
        object.__setattr__(self, "indices", idx)


def nearest_indices(rows: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Exact nearest codebook row per input row; ties take the lowest index."""
    if rows.shape[1] != codebook.shape[1]:
        raise ShapeError(
            f"row width {rows.shape[1]} != codebook width {codebook.shape[1]}"
        )
    # ||h - v||^2 = ||h||^2 - 2 h.v + ||v||^2; argmin returns the first
    # (lowest) index among exact ties
    d2 = (
        np.sum(rows * rows, axis=1, keepdims=True)
        - 2.0 * rows @ codebook.T
        + np.sum(codebook * codebook, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


class VectorQuantizer(Module):
    """Bridge projections, codebook, and token bookkeeping."""

    def __init__(self, cfg: QuantizerConfig, embed_dim: int, rng: np.random.Generator):
        self.cfg = cfg
        self.down = Linear(embed_dim, cfg.code_dim, rng)
        self.up = Linear(cfg.code_dim, embed_dim, rng)
        bound = 1.0 / np.sqrt(cfg.code_dim)
        self.codebook = Tensor(
            rng.uniform(-bound, bound, size=(cfg.num_codes, cfg.code_dim)),
            requires_grad=True,
        )
        # usage bookkeeping (not parameters): counts this epoch and the
        # number of consecutive completed epochs each entry went unused
        self.epoch_counts = np.zeros(cfg.num_codes, dtype=np.int64)
        self.unused_epochs = np.zeros(cfg.num_codes, dtype=np.int64)

    def quantize_rows(self, rows: np.ndarray) -> np.ndarray:
        return nearest_indices(rows, self.codebook.data)

    def warm_start(self, rows: np.ndarray, rng: np.random.Generator) -> None:
        """k-means initialisation of the codebook from sample rows.

        Seeding follows the k-means++ rule; clusters that empty out are
        reseeded to the row farthest from its assigned center.
        """
        n = self.cfg.num_codes
        if rows.shape[0] < n:
            reps = int(np.ceil(n / rows.shape[0]))
            rows = np.tile(rows, (reps, 1)) + 1e-4 * rng.standard_normal((reps * rows.shape[0], rows.shape[1]))
        centers = np.empty((n, rows.shape[1]))
        centers[0] = rows[rng.integers(rows.shape[0])]
        d2 = np.sum((rows - centers[0]) ** 2, axis=1)
        for j in range(1, n):
            probs = d2 / d2.sum() if d2.sum() > 0 else np.full(rows.shape[0], 1.0 / rows.shape[0])
            centers[j] = rows[rng.choice(rows.shape[0], p=probs)]
            d2 = np.minimum(d2, np.sum((rows - centers[j]) ** 2, axis=1))
        for _ in range(KMEANS_ITERS):
            assign = nearest_indices(rows, centers)
            dist = np.linalg.norm(rows - centers[assign], axis=1)
            for j in range(n):
                members = rows[assign == j]
                if members.shape[0]:
                    centers[j] = members.mean(axis=0)
                else:
                    far = int(np.argmax(dist))
                    centers[j] = rows[far]
                    dist[far] = 0.0
        self.codebook.data[...] = centers  # in place: the optimizer owns the codebook

    def __call__(self, h_eeg: Tensor) -> tuple[TokenSequence, Tensor, Tensor, Tensor]:
        """Quantize C x P x E features.

        Returns (tokens, z_up, h_down, z_q): the token sequence, the
        up-projected straight-through features (C*P x E), and the
        pre/post-quantization rows at width D for the commitment loss.
        """
        c, p, e = h_eeg.shape
        rows = ad.reshape(h_eeg, (c * p, e))
        h_down = self.down(rows)
        idx = self.quantize_rows(h_down.data)
        np.add.at(self.epoch_counts, idx, 1)
        z_q = ad.take(self.codebook, idx)
        z_st = ad.straight_through(h_down, z_q)
        z_up = self.up(z_st)
        tokens = TokenSequence(indices=idx, channels=c, patches=p)
        return tokens, z_up, h_down, z_q

    # ---- health and revival ----
    def end_epoch(self, revival_pool: np.ndarray | None, rng: np.random.Generator) -> int:
        """Roll epoch usage; revive entries unused for the configured horizon.

        Revived entries are reset to a random row from `revival_pool`
        (encoder outputs at width D). Returns the number revived.
        """
        self.unused_epochs = np.where(self.epoch_counts > 0, 0, self.unused_epochs + 1)
        self.epoch_counts[:] = 0
        dead = np.nonzero(self.unused_epochs >= self.cfg.revival_epochs)[0]
        revived = 0
        if dead.size and revival_pool is not None and revival_pool.shape[0] > 0:
            picks = rng.integers(0, revival_pool.shape[0], size=dead.size)
            jitter = 1e-3 * rng.standard_normal((dead.size, self.cfg.code_dim))
            self.codebook.data[dead] = revival_pool[picks] + jitter
            self.unused_epochs[dead] = 0
            revived = int(dead.size)
        return revived


def codebook_health(counts: np.ndarray) -> dict:
    """Usage perplexity exp(entropy) and dead-entry count from usage counts."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return {"perplexity": 0.0, "dead_entries": int(counts.size)}
    probs = counts / total
    nz = probs[probs > 0]
    entropy = -np.sum(nz * np.log(nz))
    return {
        "perplexity": float(np.exp(entropy)),
        "dead_entries": int(np.sum(counts == 0)),
    }


# ---------------------------------------------------------------------------
# token dump format: header line "C P N_v", then one line per sample
# ---------------------------------------------------------------------------

def save_tokens(path: str | Path, sequences: list[TokenSequence], num_codes: int) -> None:
    if not sequences:
        raise DataError("no token sequences to save")
    c, p = sequences[0].channels, sequences[0].patches
    for seq in sequences:
        if (seq.channels, seq.patches) != (c, p):
            raise DataError("token sequences disagree on (C, P) extents")
    lines = [f"{c} {p} {num_codes}"]
    for seq in sequences:
        lines.append(" ".join(str(int(i)) for i in seq.indices))
    Path(path).write_text("\n".join(lines) + "\n")
