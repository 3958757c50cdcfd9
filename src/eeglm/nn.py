"""Small neural-network layer library on top of the autodiff core."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


class Module:
    """Base class: parameters are Tensor attributes, children are Module
    attributes or lists of Modules; discovery follows insertion order."""

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, val in vars(self).items():
            key = f"{prefix}.{name}" if prefix else name
            if isinstance(val, Tensor):
                out[key] = val
            elif isinstance(val, Module):
                out.update(val.named_parameters(key))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{key}.{i}"))
                    elif isinstance(item, Tensor):
                        out[f"{key}.{i}"] = item
        return out

    def trainable_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {k: v for k, v in self.named_parameters(prefix).items() if v.requires_grad}

    def freeze(self) -> None:
        for p in self.named_parameters().values():
            p.requires_grad = False

    def unfreeze(self) -> None:
        for p in self.named_parameters().values():
            p.requires_grad = True


class Linear(Module):
    """y = x W^T + b, with an optional low-rank adapter on the weight.

    The adapter contributes (alpha/rank) * B A; `merge_lora` folds it into
    the base weight and removes it.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        self.w = ad.parameter((out_dim, in_dim), rng, fan_in=in_dim)
        self.b = ad.parameter((out_dim,), rng, fan_in=in_dim) if bias else None
        self.lora_a: Tensor | None = None
        self.lora_b: Tensor | None = None
        self._lora_scale = 0.0

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    def attach_lora(self, rank: int, alpha: float, rng: np.random.Generator) -> None:
        if rank < 1:
            raise ConfigError(f"adapter rank must be >= 1, got {rank}")
        if self.lora_a is not None:
            raise ConfigError("adapter already attached")
        self.lora_a = ad.parameter((rank, self.in_dim), rng, fan_in=self.in_dim)
        self.lora_b = Tensor(np.zeros((self.out_dim, rank)), requires_grad=True)
        self._lora_scale = alpha / rank

    def merge_lora(self) -> None:
        """Fold the adapter into the base weight and drop it."""
        if self.lora_a is None:
            return
        delta = self._lora_scale * (self.lora_b.data @ self.lora_a.data)
        self.w.data = self.w.data + delta
        self.lora_a = None
        self.lora_b = None
        self._lora_scale = 0.0

    def effective_weight(self) -> np.ndarray:
        if self.lora_a is None:
            return self.w.data
        return self.w.data + self._lora_scale * (self.lora_b.data @ self.lora_a.data)

    def __call__(self, x: Tensor) -> Tensor:
        lora = None if self.lora_a is None else (self.lora_a, self.lora_b, self._lora_scale)
        return ad.linear(x, self.w, self.b, lora)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta, self.eps)


class FeedForward(Module):
    """Two-layer gelu MLP (no internal residual)."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, out_dim: int | None = None):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, out_dim or dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class MultiHeadAttention(Module):
    """Scaled-dot-product attention over 2-D (tokens x features) inputs.

    `last_attention` stores the most recent head-averaged weight matrix
    (queries x keys) as a plain array for exports and tests.
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        if dim % n_heads != 0:
            raise ConfigError(f"feature dim {dim} not divisible by {n_heads} heads")
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.last_attention: np.ndarray | None = None

    def __call__(self, query: Tensor, key_value: Tensor, causal: bool = False) -> Tensor:
        if query.ndim != 2 or key_value.ndim != 2:
            raise ShapeError(
                f"attention expects 2-D token matrices, got {query.shape} and {key_value.shape}"
            )
        tq, e = query.shape
        tk = key_value.shape[0]
        h, dh = self.n_heads, self.head_dim

        def split(x: Tensor, t: int) -> Tensor:
            return ad.transpose(ad.reshape(x, (t, h, dh)), (1, 0, 2))

        q = split(self.wq(query), tq)
        k = split(self.wk(key_value), tk)
        v = split(self.wv(key_value), tk)
        mixed, weights = ad.attention(q, k, v, 1.0 / math.sqrt(dh), causal)
        self.last_attention = weights.mean(axis=0)
        out = ad.reshape(ad.transpose(mixed, (1, 0, 2)), (tq, e))
        return self.wo(out)


class Embedding(Module):
    def __init__(self, num: int, dim: int, rng: np.random.Generator):
        self.table = ad.parameter((num, dim), rng, fan_in=dim)

    def __call__(self, ids) -> Tensor:
        return ad.take(self.table, np.asarray(ids, dtype=np.int64))

    @property
    def num(self) -> int:
        return self.table.shape[0]
