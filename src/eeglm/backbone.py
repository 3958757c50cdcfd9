"""Toy decoder-only causal transformer over the expanded vocabulary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .nn import Embedding, FeedForward, LayerNorm, Linear, Module, MultiHeadAttention
from .sequences import HybridSequence, VocabSpec

LORA_TARGETS = ("wq", "wk", "wv", "wo", "fc1", "fc2")


@dataclass(frozen=True)
class BackboneConfig:
    """Sizes for the toy autoregressive language model."""

    vocab: VocabSpec
    n_layers: int = 2
    embed_dim: int = 64
    n_heads: int = 4
    ffn_mult: int = 4
    max_len: int = 256
    sem_dim: int = 16
    tied_head: bool = False

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError(f"backbone needs >= 1 layer, got {self.n_layers}")


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
        x = ad.add(x, self.attn(query, normed, causal=True, positions=rows))
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
        self.head = None if cfg.tied_head else Linear(e, cfg.vocab.v_total, rng, bias=False)

    def embed_sequence(self, seq: HybridSequence, sem: Tensor | None = None) -> Tensor:
        """Token embeddings with the sem span replaced by projected rows.

        `sem` overrides the stored rows with a live tensor so gradients can
        flow back into whatever produced them.
        """
        n = seq.length
        if n > self.cfg.max_len:
            raise ConfigError(f"sequence length {n} exceeds max_len {self.cfg.max_len}")
        sem_s, sem_e = seq.spans.get("sem", (0, 0))
        if sem_e > sem_s:
            rows = Tensor(seq.sem) if sem is None else sem
            if rows.shape != (sem_e - sem_s, self.cfg.sem_dim):
                raise ConfigError(
                    f"sem rows {rows.shape} do not fit span of {sem_e - sem_s} "
                    f"positions at width {self.cfg.sem_dim}"
                )
            parts = [
                self.tok_emb(seq.ids[:sem_s]),
                self.sem_proj(rows),
                self.tok_emb(seq.ids[sem_e:]),
            ]
            x = ad.concat(parts, axis=0)
        else:
            x = self.tok_emb(seq.ids)
        return ad.add(x, ad.slice_(self.pos_emb, slice(0, n)))

    def logits(
        self, seq: HybridSequence, sem: Tensor | None = None, rows=None
    ) -> Tensor:
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
        x = self.ln_f(self.blocks[-1](x, rows))
        if self.head is not None:
            return self.head(x)
        return ad.linear(x, self.tok_emb.table)

    # -- adapter management --------------------------------------------------

    def _target_layers(self, targets: tuple[str, ...]) -> list[Linear]:
        unknown = [t for t in targets if t not in LORA_TARGETS]
        if unknown:
            raise ConfigError(
                f"unknown adapter targets {unknown}; valid names are {list(LORA_TARGETS)}"
            )
        layers = []
        for block in self.blocks:
            table = {
                "wq": block.attn.wq,
                "wk": block.attn.wk,
                "wv": block.attn.wv,
                "wo": block.attn.wo,
                "fc1": block.ffn.fc1,
                "fc2": block.ffn.fc2,
            }
            layers.extend(table[t] for t in targets)
        return layers

    def apply_lora(
        self,
        rank: int,
        alpha: float,
        rng: np.random.Generator,
        targets: tuple[str, ...] = LORA_TARGETS,
    ) -> None:
        """Freeze the backbone and attach trainable low-rank adapters."""
        layers = self._target_layers(targets)
        self.freeze()
        for layer in layers:
            layer.attach_lora(rank, alpha, rng)

    def merge_adapters(self) -> None:
        for layer in self._target_layers(LORA_TARGETS):
            layer.merge_lora()

    def expansion_parameters(self) -> dict[str, Tensor]:
        """Embedding/positional/head/sem-bridge/norm weights trained alongside
        the adapters when the vocabulary is expanded."""
        out = {"tok_emb.table": self.tok_emb.table, "pos_emb": self.pos_emb}
        out.update(self.sem_proj.named_parameters("sem_proj"))
        out.update(self.ln_f.named_parameters("ln_f"))
        if self.head is not None:
            out.update(self.head.named_parameters("head"))
        return out
