"""Temporal patch embedding and the dual-stream hierarchical attention encoder.

Patches are embedded by a three-stage conv stack plus a linear projection,
augmented with learned absolute per-patch position embeddings, then pooled
into the five topology levels. A global stream starts from the whole-brain
feature and queries successively finer levels; a local stream starts from
the single-channel features and queries successively coarser levels. Each
stream ends with a self-attention block, and the two are fused back to one
feature vector per (channel, patch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .nn import Embedding, FeedForward, LayerNorm, Linear, Module, MultiHeadAttention
from .topology import BthHierarchy, build_hierarchy, get_montage


@dataclass(frozen=True)
class EncoderConfig:
    embed_dim: int
    n_heads: int
    ffn_mult: int
    patch_len: int
    max_patches: int
    montage: str | None

    def conv_out_len(self) -> int:
        l1 = (self.patch_len + 2 * 7 - 15) // 8 + 1
        l2 = (l1 + 2 * 1 - 3) // 1 + 1
        l3 = (l2 + 2 * 1 - 3) // 1 + 1
        return l3


class TemporalEmbedder(Module):
    """Conv stages (1->16->16->16, kernels 15/3/3, strides 8/1/1) + linear."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.conv1_w = ad.parameter((16, 1, 15), rng, fan_in=15)
        self.conv1_b = ad.parameter((16,), rng, fan_in=15)
        self.conv2_w = ad.parameter((16, 16, 3), rng, fan_in=48)
        self.conv2_b = ad.parameter((16,), rng, fan_in=48)
        self.conv3_w = ad.parameter((16, 16, 3), rng, fan_in=48)
        self.conv3_b = ad.parameter((16,), rng, fan_in=48)
        self.proj = Linear(16 * cfg.conv_out_len(), cfg.embed_dim, rng)
        self.patch_len = cfg.patch_len

    def __call__(self, patches: np.ndarray) -> Tensor:
        c, p, w = patches.shape
        if w != self.patch_len:
            raise ConfigError(f"patch length {w} does not match embedder ({self.patch_len})")
        x = Tensor(patches.reshape(c * p, 1, w))
        x = ad.gelu(ad.conv1d(x, self.conv1_w, self.conv1_b, stride=8, padding=7))
        x = ad.gelu(ad.conv1d(x, self.conv2_w, self.conv2_b, stride=1, padding=1))
        x = ad.gelu(ad.conv1d(x, self.conv3_w, self.conv3_b, stride=1, padding=1))
        flat = ad.reshape(x, (c, p, x.shape[1] * x.shape[2]))
        return self.proj(flat)


class CsaBlock(Module):
    """Cross-scale attention step: FFN(LN(attn(q, kv) + q)); called as
    `block(x, x)` it is a stream-final self-attention step."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.attn = MultiHeadAttention(cfg.embed_dim, cfg.n_heads, rng)
        self.ln = LayerNorm(cfg.embed_dim)
        self.ffn = FeedForward(cfg.embed_dim, cfg.ffn_mult * cfg.embed_dim, rng)

    def __call__(self, query: Tensor, key_value: Tensor) -> Tensor:
        mixed = self.attn(query, key_value)[0]
        return self.ffn(self.ln(ad.add(mixed, query)))


def _flat(level: Tensor) -> Tensor:
    # a node per use: each use's gradient terms sum here before the level's (vq's bytes depend on that order)
    n, p, e = level.shape
    return ad.reshape(level, (n * p, e))


class DualStreamEncoder(Module):
    """Hierarchy-pooled dual-stream attention encoder producing H_EEG."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator, hierarchy: BthHierarchy | None = None):
        self.cfg = cfg
        self.hierarchy = hierarchy or build_hierarchy(get_montage(cfg.montage))
        self.embedder = TemporalEmbedder(cfg, rng)
        self.positions = Embedding(cfg.max_patches, cfg.embed_dim, rng)
        # four unshared cross-scale blocks per stream (levels 5 - 1 steps)
        self.global_blocks = [CsaBlock(cfg, rng) for _ in range(4)]
        self.local_blocks = [CsaBlock(cfg, rng) for _ in range(4)]
        self.global_final = CsaBlock(cfg, rng)
        self.local_final = CsaBlock(cfg, rng)
        self.fuse_proj = Linear(2 * cfg.embed_dim, cfg.embed_dim, rng)

    def pool_levels(self, features: Tensor) -> list[Tensor]:
        """Mean-pool C x P x E features into all five hierarchy levels."""
        return [ad.mix(self.hierarchy.mean_matrix(level), features) for level in range(1, 6)]

    def broadcast_mean_234(self, levels: list[Tensor]) -> Tensor:
        """Unweighted mean of levels 2..4 broadcast back to channels."""
        full = [ad.mix(self.hierarchy.member_matrix(level), levels[level - 1]) for level in (2, 3, 4)]
        return ad.mul(ad.add(ad.add(full[0], full[1]), full[2]), 1.0 / 3.0)

    def __call__(self, patches: np.ndarray) -> Tensor:
        """Encode one recording's (C, P, W) patch array into H_EEG, C x P x E."""
        c, p, _ = patches.shape
        if p > self.cfg.max_patches:
            raise ConfigError(f"{p} patches exceed configured maximum {self.cfg.max_patches}")
        e = self.cfg.embed_dim

        feats = self.embedder(patches)
        feats = ad.add(feats, self.positions(np.arange(p)))
        levels = self.pool_levels(feats)

        g = _flat(levels[0])
        for block, finer in zip(self.global_blocks, levels[1:]):
            g = block(g, _flat(finer))
        l = _flat(levels[4])
        for block, coarser in zip(self.local_blocks, levels[3::-1]):
            l = block(l, _flat(coarser))

        g = self.global_final(g, g)
        l = self.local_final(l, l)

        # fusion: broadcast the (1 x P x E) global stream to channels,
        # concatenate with the local stream, project 2E -> E, then add the
        # channel-broadcast mean of the intermediate levels 2..4
        g_broad = ad.mix(self.hierarchy.member_matrix(1), ad.reshape(g, (1, p, e)))
        l_full = ad.reshape(l, (c, p, e))
        fused = self.fuse_proj(ad.concat([g_broad, l_full], axis=-1))
        return ad.add(fused, self.broadcast_mean_234(levels))
