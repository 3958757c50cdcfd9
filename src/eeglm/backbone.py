"""Toy decoder-only causal transformer over the expanded vocabulary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .nn import Embedding, FeedForward, LayerNorm, Linear, Module, MultiHeadAttention
from .sequences import HybridSequence, VocabSpec


@dataclass(frozen=True)
class BackboneConfig:
    """Sizes for the toy autoregressive language model."""

    vocab: VocabSpec
    n_layers: int
    embed_dim: int
    n_heads: int
    ffn_mult: int
    max_len: int
    sem_dim: int


class TransformerBlock(Module):
    """Pre-norm residual block: self-attention then feed-forward."""

    def __init__(self, dim: int, n_heads: int, ffn_mult: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, dim * ffn_mult, rng)

    def __call__(self, x: Tensor, rows: np.ndarray | None = None) -> Tensor:
        """Block output at every position, or only at the positions `rows`
        (keys and values still cover every position)."""
        normed = query = self.ln1(x)
        if rows is not None:
            x, query = ad.take(x, rows), ad.take(normed, rows)
        # [0]: the weights (heads x rows x positions) are freed before the FFN runs
        x = ad.add(x, self.attn(query, normed, causal=True, positions=rows)[0])
        return ad.add(x, self.ffn(self.ln2(x)))


class ToyBackbone(Module):
    """Causal transformer whose embedding layer accepts continuous prefix rows."""

    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        self.cfg = cfg
        e = cfg.embed_dim
        self.tok_emb = Embedding(cfg.vocab.v_total, e, rng)
        self.pos_emb = ad.parameter((cfg.max_len, e), rng, fan_in=e)
        self.sem_proj = Linear(cfg.sem_dim, e, rng)
        self.blocks = [
            TransformerBlock(e, cfg.n_heads, cfg.ffn_mult, rng) for _ in range(cfg.n_layers)
        ]
        self.ln_f = LayerNorm(e)
        self.head = Linear(e, cfg.vocab.v_total, rng, bias=False)

    def embed_sequence(self, seq: HybridSequence, sem: Tensor) -> Tensor:
        """Token embeddings with the sem span replaced by the projected rows
        `sem` (one per span position), so gradients flow back into whatever
        produced them."""
        n = seq.length
        if n > self.cfg.max_len:
            raise ConfigError(f"sequence length {n} exceeds max_len {self.cfg.max_len}")
        sem_s, sem_e = seq.spans.get("sem", (0, 0))
        if sem.shape != (sem_e - sem_s, self.cfg.sem_dim):
            raise ConfigError(
                f"sem rows {sem.shape} do not fit span of {sem_e - sem_s} "
                f"positions at width {self.cfg.sem_dim}"
            )
        parts = [
            self.tok_emb(seq.ids[:sem_s]),
            self.sem_proj(sem),
            self.tok_emb(seq.ids[sem_e:]),
        ]
        x = ad.concat(parts, axis=0)
        return ad.add(x, ad.slice_(self.pos_emb, slice(0, n)))

    def logits(self, seq: HybridSequence, sem: Tensor, rows=None) -> Tensor:
        """Next-token logits, one row per position of `seq`, or one row per
        entry of `rows` (positions, in the order given). Every block but the
        last runs over every position; the last computes its keys and values
        over every position and the rest only on `rows`, as do `ln_f` and
        the head."""
        x = self.embed_sequence(seq, sem)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= seq.length)):
                raise ShapeError(
                    f"logit rows must be positions in [0, {seq.length}), got {rows.tolist()}"
                )
        for block in self.blocks[:-1]:
            x = block(x)
        return self.head(self.ln_f(self.blocks[-1](x, rows)))

    # -- adapter management --------------------------------------------------

    def _adapted_layers(self) -> list[Linear]:
        """Each block's four attention projections and two FFN layers, in block order."""
        return [
            layer
            for b in self.blocks
            for layer in (b.attn.wq, b.attn.wk, b.attn.wv, b.attn.wo, b.ffn.fc1, b.ffn.fc2)
        ]

    def apply_lora(self, rank: int, alpha: float, rng: np.random.Generator) -> None:
        """Freeze the backbone and attach trainable low-rank adapters."""
        self.freeze()
        for layer in self._adapted_layers():
            layer.attach_lora(rank, alpha, rng)

    def merge_adapters(self) -> None:
        for layer in self._adapted_layers():
            layer.merge_lora()

    def expansion_parameters(self) -> dict[str, Tensor]:
        """Embedding/positional/head/sem-bridge/norm weights trained alongside
        the adapters when the vocabulary is expanded."""
        out = {"tok_emb.table": self.tok_emb.table, "pos_emb": self.pos_emb}
        out.update(self.sem_proj.named_parameters("sem_proj"))
        out.update(self.ln_f.named_parameters("ln_f"))
        out.update(self.head.named_parameters("head"))
        return out
