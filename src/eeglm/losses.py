"""Training objectives: reconstruction, next-token prediction, answer-only SFT."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tensor
from .backbone import ToyBackbone
from .errors import AssemblyError, ShapeError
from .nn import Linear, Module
from .sequences import HybridSequence


class ReconstructionHeads(Module):
    """Per-token linear decoders back to time samples and DFT magnitudes."""

    def __init__(self, embed_dim: int, window: int, rng: np.random.Generator):
        self.time = Linear(embed_dim, window, rng)
        self.freq = Linear(embed_dim, window // 2 + 1, rng)

    def __call__(self, features: Tensor) -> tuple[Tensor, Tensor]:
        return self.time(features), self.freq(features)


def loss_dsha(x, x_hat, x_fre, x_fre_hat, h, z_q, beta: float) -> Tensor:
    """Time + frequency reconstruction errors plus the commitment loss, as
    one tape node.

    Each term is a mean of squares: (x - x_hat)^2, (x_fre - x_fre_hat)^2,
    then ||sg[h] - z_q||^2 + beta ||h - sg[z_q]||^2, whose first term
    carries gradient to the codebook rows z_q and its second to the encoder
    features h. Value and gradients are those of the chain of sub, mul,
    sum_ and mul nodes (`tests/oracles.py`), bit for bit. The node holds no
    difference: its vjp recomputes each from its pair.
    """
    # in the order the chain's vjps reach them: the commitment pair, then
    # the frequency and the time reconstruction pairs
    pairs = [(ad.as_tensor(a), ad.as_tensor(b)) for a, b in ((h, z_q), (x_fre, x_fre_hat), (x, x_hat))]
    means, scales = [], []
    for a, b in pairs:
        if a.shape != b.shape:
            raise ShapeError(f"loss pair shapes differ: {a.shape} vs {b.shape}")
        d = a.data - b.data
        scales.append(1.0 / d.size)  # the chain's mean: the sum times 1 / count
        means.append((d * d).sum() * scales[-1])
    quant, fre, rec = means
    out = Tensor._wrap((rec + fre) + (quant + quant * beta))

    def vjp(g: Array):
        grads = []
        for i, ((a, b), c) in enumerate(zip(pairs, scales)):
            if not (a.requires_grad or b.requires_grad):
                grads += [None, None]
                continue
            d = a.data - b.data
            ga = (g * beta if i == 0 else g) * c * d
            ga += ga
            gb = ga
            if i == 0:  # h gets the beta-weighted term, z_q the codebook term
                gb = g * c * d
                gb += gb
            grads += [ga, -gb]
        return grads

    return ad._record(out, tuple(t for pair in pairs for t in pair), vjp)


def span_rows(seq: HybridSequence, span: str) -> np.ndarray:
    """Positions whose logits predict the tokens of `span` (each token is
    predicted from the position before it); empty for an absent span."""
    s, e = seq.spans.get(span, (0, 0))
    return np.arange(s - 1, max(e, s) - 1)


def span_nll(logits: Tensor, seq: HybridSequence, span: str) -> Tensor:
    """Mean NLL of span tokens, each predicted from the preceding position,
    as one tape node.

    `logits` holds the rows `span_rows(seq, span)` in that order (what
    `ToyBackbone.logits` returns for those rows). Value and gradient are
    those of the chain log_softmax -> pick -> mean -> neg
    (`tests/oracles.py`), bit for bit. The node keeps each row's max and
    log-sum-exp, not its log-probabilities, and its vjp writes the rows'
    gradient into one array.
    """
    s, e = seq.spans.get(span, (0, 0))
    if e <= s:
        return Tensor._view(np.zeros((), logits.data.dtype))
    n = e - s
    if logits.shape[0] != n:
        raise ShapeError(f"{span} span of {n} tokens needs {n} logit rows, got {logits.shape[0]}")
    at = (np.arange(n), seq.ids[s:e])  # each row's target
    read = logits.data
    top = read.max(axis=-1, keepdims=True)
    shifted = read - top
    picked = shifted[at]
    lse = np.log(np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True))
    picked -= lse[:, 0]
    out = Tensor._wrap(-(picked.sum() * (1.0 / n)))

    def vjp(g: Array):
        # pick's gradient holds each row's share of the mean at its target
        # and zeros elsewhere, so log_softmax's vjp is share - exp(y) *
        # share at a target and 0.0 - exp(y) * share elsewhere
        share = (-g) * (1.0 / n)
        grad = np.subtract(read, top)  # y rebuilt from the kept max and lse, then the vjp in place
        grad -= lse
        np.exp(grad, out=grad)
        grad *= share
        hit = share - grad[at]
        np.subtract(0.0, grad, out=grad)
        grad[at] = hit
        return (grad,)

    return ad._record(out, (logits,), vjp)


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
