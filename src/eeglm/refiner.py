"""Latent-expert cross-attention refiner with an orthogonality penalty."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericError, ShapeError
from .hashing import WORD_CACHE_SIZE, fnv1a_64
from .nn import FeedForward, LayerNorm, Module, MultiHeadAttention

N_HASHES = 4  # hashed slots each word adds to its embedding row


@dataclass(frozen=True)
class RefinerConfig:
    """Sizes for the latent-expert refiner."""

    n_experts: int
    embed_dim: int
    n_heads: int
    ffn_mult: int


@lru_cache(maxsize=WORD_CACHE_SIZE)
def _word_hashes(word: str) -> tuple[int, ...]:
    """The word's N_HASHES seeded hashes, remembered for the most recent words."""
    return tuple(fnv1a_64(f"{seed}:{word}") for seed in range(N_HASHES))


class HashedTextEmbedder:
    """Deterministic per-word hashed embedding: one L2-normalized row per word."""

    def __init__(self, embed_dim: int):
        self.embed_dim = embed_dim

    def embed(self, text: str) -> np.ndarray:
        words = text.lower().split()
        n, dim = len(words), self.embed_dim
        hashes = np.array([_word_hashes(w) for w in words], dtype=np.uint64).reshape(n, N_HASHES)
        # each word's slots as flat indices into its row; counts are exact integers
        slots = (hashes % dim).astype(np.intp) + dim * np.arange(n)[:, None]
        rows = np.bincount(slots.ravel(), minlength=n * dim).reshape(n, dim) / N_HASHES
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        return rows / np.maximum(norms, 1e-12)


class SemanticRefiner(Module):
    """Two-stage cross-attention: calibrate experts on text, aggregate tokens."""

    def __init__(self, cfg: RefinerConfig, rng: np.random.Generator):
        self.cfg = cfg
        e = cfg.embed_dim
        self.q_lat = ad.parameter((cfg.n_experts, e), rng, fan_in=e)
        self.cal_attn = MultiHeadAttention(e, cfg.n_heads, rng)
        self.cal_ln = LayerNorm(e)
        self.cal_ffn = FeedForward(e, e * cfg.ffn_mult, rng)
        self.agg_attn = MultiHeadAttention(e, cfg.n_heads, rng)
        self.proj_ln = LayerNorm(e)
        self.proj_ffn = FeedForward(e, e * cfg.ffn_mult, rng)

    def calibrate(self, h_text: Tensor | np.ndarray) -> Tensor:
        """Prime the latent experts on the profile text embedding."""
        h_text = ad.as_tensor(h_text)
        if h_text.shape[0] == 0:
            raise ShapeError("text embedding is empty: nothing to calibrate on")
        attended = self.cal_attn(self.q_lat, h_text)[0]
        return ad.add(self.cal_ffn(self.cal_ln(attended)), attended)

    def aggregate(self, q_calib: Tensor, z_q: Tensor | np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Let calibrated experts pool the quantized token stream; returns the
        pooled rows and the (heads, n_experts, tokens) attention weights."""
        z_q = ad.as_tensor(z_q)
        if z_q.shape[0] == 0:
            raise ShapeError("token stream is empty: nothing to aggregate")
        return self.agg_attn(q_calib, z_q)

    def project(self, o_star: Tensor) -> Tensor:
        """Final alignment head: normalized residual feed-forward."""
        return self.proj_ln(ad.add(o_star, self.proj_ffn(o_star)))

    def __call__(self, h_text: Tensor | np.ndarray, z_q: Tensor | np.ndarray) -> Tensor:
        """The (n_experts, embed_dim) semantic rows the backbone's bridge reads."""
        return self.project(self.aggregate(self.calibrate(h_text), z_q)[0])

    def orth_loss(self) -> Tensor:
        """Frobenius deviation of the normalized expert Gram matrix from I."""
        if not np.any(self.q_lat.data):
            raise NumericError("latent experts are all zero: Gram normalizer vanishes")
        gram = ad.linear(self.q_lat, self.q_lat)
        fro_sq = ad.sum_(ad.mul(self.q_lat, self.q_lat))
        dev = ad.sub(ad.div(gram, fro_sq), np.eye(self.cfg.n_experts))
        return ad.sqrt(ad.sum_(ad.mul(dev, dev)))


def attention_rows(
    attention_map: np.ndarray, channels: tuple[str, ...], n_patches: int
) -> list[tuple[int, str, int, float]]:
    """Flatten an expert-by-token attention map to (expert, channel, patch, weight)."""
    n_experts, n_tokens = attention_map.shape
    if n_tokens != len(channels) * n_patches:
        raise ShapeError(
            f"attention map covers {n_tokens} tokens, expected "
            f"{len(channels)} channels x {n_patches} patches"
        )
    rows = []
    for e in range(n_experts):
        for t in range(n_tokens):
            rows.append((e, channels[t // n_patches], t % n_patches, float(attention_map[e, t])))
    return rows
