"""Training objectives: reconstruction, next-token prediction, answer-only SFT."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import ToyBackbone
from .errors import AssemblyError, ShapeError
from .nn import Linear, Module
from .quantizer import quant_loss
from .sequences import HybridSequence


class ReconstructionHeads(Module):
    """Per-token linear decoders back to time samples and DFT magnitudes."""

    def __init__(self, embed_dim: int, window: int, rng: np.random.Generator):
        self.time = Linear(embed_dim, window, rng)
        self.freq = Linear(embed_dim, window // 2 + 1, rng)

    def __call__(self, features: Tensor) -> tuple[Tensor, Tensor]:
        return self.time(features), self.freq(features)


def _mse(a, b) -> Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"reconstruction pair shapes differ: {a.shape} vs {b.shape}")
    diff = ad.sub(a, b)
    return ad.mean(ad.mul(diff, diff))


def loss_dsha(x, x_hat, x_fre, x_fre_hat, h, z_q, beta: float) -> Tensor:
    """Time + frequency reconstruction errors plus the commitment loss."""
    return ad.add(
        ad.add(_mse(x, x_hat), _mse(x_fre, x_fre_hat)), quant_loss(h, z_q, beta)
    )


def span_rows(seq: HybridSequence, span: str) -> np.ndarray:
    """Positions whose logits predict the tokens of `span` (each token is
    predicted from the position before it); empty for an absent span."""
    s, e = seq.spans.get(span, (0, 0))
    return np.arange(s - 1, max(e, s) - 1)


def span_nll(logits: Tensor, seq: HybridSequence, span: str) -> Tensor:
    """Mean NLL of span tokens, each predicted from the preceding position.

    `logits` holds one row per position of `seq`, or only the rows
    `span_rows(seq, span)` in that order (what `ToyBackbone.logits` returns
    for those rows).
    """
    s, e = seq.spans.get(span, (0, 0))
    if e <= s:
        return Tensor(np.float64(0.0))
    if logits.shape[0] == seq.length:
        rows = span_rows(seq, span)
    elif logits.shape[0] == e - s:
        rows = np.arange(e - s)
    else:
        raise ShapeError(
            f"{span} span of {e - s} tokens needs {seq.length} or {e - s} logit rows, "
            f"got {logits.shape[0]}"
        )
    log_probs = ad.log_softmax(logits, axis=-1)
    picked = ad.pick(log_probs, rows, seq.ids[s:e])
    return ad.neg(ad.mean(picked))


def loss_ntp(seq: HybridSequence, backbone: ToyBackbone, sem: Tensor) -> tuple[Tensor, Tensor]:
    """Text-span and signal-span next-token losses on one hybrid sequence.

    The backbone computes only the rows the two spans read: the text rows,
    then the signal rows."""
    text, eeg = span_rows(seq, "text"), span_rows(seq, "eeg")
    logits = backbone.logits(seq, sem, rows=np.concatenate([text, eeg]))
    n = text.size
    return (
        span_nll(ad.slice_(logits, slice(0, n)), seq, "text"),
        span_nll(ad.slice_(logits, slice(n, None)), seq, "eeg"),
    )


def loss_cpt(text_loss, eeg_loss, orth, lambda_orth: float) -> Tensor:
    """Pre-training objective: both NTP terms plus the weighted diversity penalty."""
    return ad.add(
        ad.add(ad.as_tensor(text_loss), ad.as_tensor(eeg_loss)),
        ad.mul(ad.as_tensor(orth), lambda_orth),
    )


def loss_sft(seq: HybridSequence, backbone: ToyBackbone, sem: Tensor) -> Tensor:
    """Answer-only instruction loss; everything else is context."""
    rows = span_rows(seq, "answer")
    if rows.size == 0:
        raise AssemblyError("SFT loss needs a non-empty answer span")
    return span_nll(backbone.logits(seq, sem, rows=rows), seq, "answer")
