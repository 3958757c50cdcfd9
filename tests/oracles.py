"""Reference ops that only the tests use.

`tanh`, `softmax`, `log_softmax`, `pick`, `mean`, `neg`, `detach`,
`matmul`, `transpose` and `attention` are tape ops in the style of
`eeglm.autodiff`: `tanh` is a smooth test nonlinearity for the
finite-difference checks; the others build the unfused reference chains
that the fused kernels (`ad.linear`, `ad.mix`, `ad.attention_layer`) and
the fused losses must match to the bit. `attention` is the attention
between the projections as a node of its own, the middle of the
four-`linear` chain that `ad.attention_layer` fuses. `span_nll`,
`quant_loss` and `loss_dsha` are the chains that `eeglm.losses.span_nll`
and `eeglm.losses.loss_dsha` each record as one node. `pool_level` and
`broadcast_level` are the numpy oracles of the encoder's hierarchy pooling.
`AttentionSpy` keeps the weights an attention module returns inside a model.
`resample`, `bandpass_notch` and `preprocess` are the preprocessing chain
of `eeglm.signal_io` as it ran on scipy.signal, the reference its numpy
filters are held to. `gelu` is gelu's value chain on `scipy.special.erf`,
which `ad.gelu` and `ad.ffn` must match to the bit however they load erf.
`hashed_embed` is `HashedTextEmbedder.embed` as one scalar update per word
and hash, which the vectorised embedder must match to the bit.
`evaluate_one_at_a_time` is eval as it ran before it batched the encoder:
each sample tokenized by `tokenize_recording`, then prepared and scored on
its own; `evaluate_checkpoint`'s report must equal its report to the byte.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import scipy.signal as sps
import scipy.special

from eeglm import autodiff as ad
from eeglm.autodiff import Tensor
from eeglm.errors import MontageError, ShapeError
from eeglm.evaluate import build_report, label_probabilities, sample_row
from eeglm.hashing import fnv1a_64
from eeglm.signal_io import DEFAULT_BAND, WORK_FS, Recording, robust_scale
from eeglm.synth import load_corpus
from eeglm.topology import BthHierarchy
from eeglm.training import load_model, prepare_sequences


def tanh(a) -> Tensor:
    a = ad.as_tensor(a)
    out = Tensor._wrap(np.tanh(a.data))
    return ad._record(out, (a,), lambda g: (g * (1.0 - out.data * out.data),))


def gelu(x: np.ndarray) -> np.ndarray:
    """0.5*x*(1 + erf(x/sqrt(2))) in eeglm's operation order."""
    cdf = scipy.special.erf(x * (1.0 / math.sqrt(2.0)))
    cdf += 1.0
    cdf *= 0.5
    return x * cdf


def softmax(a, axis: int = -1) -> Tensor:
    a = ad.as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._wrap(y)
    return ad._record(out, (a,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = ad.as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor._wrap(y)
    return ad._record(out, (a,), lambda g: (g - np.exp(y) * g.sum(axis=axis, keepdims=True),))


def pick(a, rows, cols) -> Tensor:
    """Select a[rows[i], cols[i]] for each i from a 2-D tensor."""
    a = ad.as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"pick needs a 2-D tensor, got {a.data.shape}")
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    out = Tensor._wrap(a.data[r, c])

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (r, c), g)
        return (full,)

    return ad._record(out, (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = ad.as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return ad.mul(ad.sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def neg(a) -> Tensor:
    a = ad.as_tensor(a)
    return ad._record(Tensor._wrap(-a.data), (a,), lambda g: (-g,))


def detach(a) -> Tensor:
    """Stop-gradient: same values, no tape connection."""
    return Tensor._wrap(ad.as_tensor(a).data)


def span_nll(logits, seq, span: str) -> Tensor:
    """`eeglm.losses.span_nll` as the chain log_softmax -> pick -> mean -> neg
    over every row of `logits` (one per position of `seq`, or the span's)."""
    s, e = seq.spans[span]
    lo = s - 1 if logits.shape[0] == seq.length else 0
    log_probs = log_softmax(logits, axis=-1)
    return neg(mean(pick(log_probs, np.arange(lo, lo + e - s), seq.ids[s:e])))


def quant_loss(h, z_q, beta: float) -> Tensor:
    """Mean-form commitment loss: ||sg[h] - z_q||^2 + beta ||h - sg[z_q]||^2."""
    codebook_term = ad.sub(detach(h), z_q)
    commit_term = ad.sub(h, detach(z_q))
    return ad.add(
        mean(ad.mul(codebook_term, codebook_term)),
        ad.mul(mean(ad.mul(commit_term, commit_term)), beta),
    )


def _mse(a, b) -> Tensor:
    diff = ad.sub(a, b)
    return mean(ad.mul(diff, diff))


def loss_dsha(x, x_hat, x_fre, x_fre_hat, h, z_q, beta: float) -> Tensor:
    """`eeglm.losses.loss_dsha` as its chain of nodes."""
    return ad.add(ad.add(_mse(x, x_hat), _mse(x_fre, x_fre_hat)), quant_loss(h, z_q, beta))


def transpose(a, axes=None) -> Tensor:
    a = ad.as_tensor(a)
    out = Tensor._view(np.transpose(a.data, axes))
    inv = None if axes is None else tuple(np.argsort(axes))
    return ad._record(out, (a,), lambda g: (np.transpose(g, inv),))


def matmul(a, b) -> Tensor:
    """a @ b with gradients for both operands, broadcast over leading axes."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor._wrap(np.matmul(a.data, b.data))

    def vjp(g):
        ga = ad._unbroadcast(np.matmul(g, ad._swap_last(b.data)), a.data.shape)
        gb = ad._unbroadcast(np.matmul(ad._swap_last(a.data), g), b.data.shape)
        return ga, gb

    return ad._record(out, (a, b), vjp)


def attention(q, k, v, n_heads: int, causal: bool = False, positions=None) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention as one tape node: the output (Tq, E) and the
    softmax weights (n_heads, Tq, Tk) as a plain array (see `ad._attend`)."""
    q, k, v = (ad.as_tensor(x) for x in (q, k, v))
    mixed, weights, grads = ad._attend(q.data, k.data, v.data, n_heads, causal, positions)
    out = Tensor._wrap(mixed)

    def vjp(g):
        return grads(g, q.requires_grad, k.requires_grad, v.requires_grad)

    return ad._record(out, (q, k, v), vjp), weights


class AttentionSpy:
    """Stands in for a `MultiHeadAttention` and keeps the weights of every call."""

    def __init__(self, attn):
        self.attn, self.weights = attn, []

    def __call__(self, *args, **kw):
        out, weights = self.attn(*args, **kw)
        self.weights.append(weights)
        return out, weights


def pool_level(features: np.ndarray, hier: BthHierarchy, level: int) -> np.ndarray:
    """Mean-pool (C x P x E) channel features into (n_level x P x E) groups."""
    feats = np.asarray(features, dtype=np.float64)
    c = hier.montage.n_channels
    if feats.ndim != 3 or feats.shape[0] != c:
        raise MontageError(
            f"features shape {feats.shape} does not match {c}-channel hierarchy"
        )
    mat = hier.mean_matrix(level)
    pooled = mat @ feats.reshape(c, -1)
    return pooled.reshape(mat.shape[0], feats.shape[1], feats.shape[2])


def broadcast_level(group_features: np.ndarray, hier: BthHierarchy, level: int) -> np.ndarray:
    """Copy each group's (P x E) feature to every member channel."""
    groups = np.asarray(group_features, dtype=np.float64)
    mat = hier.member_matrix(level)
    if groups.ndim != 3 or groups.shape[0] != mat.shape[1]:
        raise MontageError(
            f"group features shape {groups.shape} does not match level {level} "
            f"({mat.shape[1]} groups)"
        )
    full = mat @ groups.reshape(mat.shape[1], -1)
    return full.reshape(mat.shape[0], groups.shape[1], groups.shape[2])


def resample(rec: Recording, target_fs: float) -> Recording:
    """Polyphase windowed-sinc resampling on scipy.signal: firwin taps
    (Kaiser beta=8.6, 64 taps/phase) and resample_poly's "line" extension."""
    if target_fs == rec.fs:
        return rec
    frac = Fraction(target_fs / rec.fs).limit_denominator(1000)
    up, down = frac.numerator, frac.denominator
    out_len = int(math.floor(rec.n_samples * target_fs / rec.fs))
    # windowed-sinc low-pass at the tighter Nyquist edge, 64 taps per branch
    max_rate = max(up, down)
    half_len = 32 * max_rate
    cutoff = 1.0 / max_rate
    taps = sps.firwin(2 * half_len + 1, cutoff, window=("kaiser", 8.6))
    out = sps.resample_poly(rec.data, up, down, axis=1, window=taps, padtype="line")
    out = out[:, :out_len]
    return replace(rec, fs=float(target_fs), data=out)


def bandpass_notch(
    rec: Recording,
    low: float = DEFAULT_BAND[0],
    high: float = DEFAULT_BAND[1],
    notch: float | None = 50.0,
) -> Recording:
    """Zero-phase 4th-order Butterworth band-pass plus a Q=30 notch on
    scipy.signal: butter sections and iirnotch, each run by Gustafsson's
    filtfilt, after demeaning."""
    sos = sps.butter(4, [low, high], btype="bandpass", fs=rec.fs, output="sos")
    out = rec.data - rec.data.mean(axis=1, keepdims=True)
    for section in sos:
        out = sps.filtfilt(section[:3], section[3:], out, axis=1, method="gust")
    if notch is not None:
        b, a = sps.iirnotch(notch, Q=30.0, fs=rec.fs)
        out = sps.filtfilt(b, a, out, axis=1, method="gust")
    return replace(rec, data=out)


def preprocess(
    rec: Recording,
    target_fs: float = WORK_FS,
    low: float = DEFAULT_BAND[0],
    high: float = DEFAULT_BAND[1],
    notch: float | None = 50.0,
) -> Recording:
    """Full chain: resample -> band-pass/notch -> robust scale."""
    return robust_scale(bandpass_notch(resample(rec, target_fs), low, high, notch))


def hashed_embed(text: str, dim: int, n_hashes: int = 4) -> np.ndarray:
    """One row per word: 1/n_hashes in the column of each of its seeded
    hashes, added one at a time, then each row L2-normalized."""
    words = text.lower().split()
    rows = np.zeros((len(words), dim))
    for i, word in enumerate(words):
        for seed in range(n_hashes):
            rows[i, fnv1a_64(f"{seed}:{word}") % dim] += 1.0
    rows /= n_hashes
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.maximum(norms, 1e-12)


def evaluate_one_at_a_time(checkpoint, data_dir) -> dict:
    """The eval report with every sample tokenized, prepared and scored on its own."""
    model, _ = load_model(checkpoint)
    classes = list(model.cfg["data"]["classes"])
    label_tokens = model.tokenizer.ensure_distinct(classes)
    rows = []
    for entry in load_corpus(data_dir, classes=classes):
        (item,) = prepare_sequences(model, [entry], with_answer=True)
        rows.append(sample_row(item, label_probabilities(model, item, label_tokens), classes))
    return build_report(model.cfg, rows)
