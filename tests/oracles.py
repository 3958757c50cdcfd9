"""Reference ops that only the tests use.

`tanh`, `softmax`, `matmul`, `transpose` and `attention` are tape ops in
the style of `eeglm.autodiff`: `tanh` is a smooth test nonlinearity for the
finite-difference checks; `softmax`, `matmul` and `transpose` build the
unfused reference chains that the fused kernels (`ad.linear`, `ad.mix`,
`ad.attention_layer`) must match to the bit; and `attention` is the
attention between the projections as a node of its own, the middle of the
four-`linear` chain that `ad.attention_layer` fuses. `pool_level` and
`broadcast_level` are the numpy oracles of the encoder's hierarchy pooling.
`AttentionSpy` keeps the weights an attention module returns inside a model.
"""

from __future__ import annotations

import numpy as np

from eeglm import autodiff as ad
from eeglm.autodiff import Tensor
from eeglm.errors import MontageError, ShapeError
from eeglm.topology import BthHierarchy


def tanh(a) -> Tensor:
    a = ad.as_tensor(a)
    out = Tensor._wrap(np.tanh(a.data))
    return ad._record(out, (a,), lambda g: (g * (1.0 - out.data * out.data),))


def softmax(a, axis: int = -1) -> Tensor:
    a = ad.as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._wrap(y)
    return ad._record(out, (a,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


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
