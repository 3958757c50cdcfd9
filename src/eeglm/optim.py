"""AdamW with decoupled weight decay, gradient clipping and a cosine schedule."""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .autodiff import Array, Tensor
from .errors import DataError


class AdamW:
    """Bias-corrected AdamW, the one owner of a stage's parameters and moments.

    Weight decay is decoupled from the moment estimates:
    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p).
    The parameters, in dict order, are copied into one contiguous buffer
    `flat` of their dtype, and each `Tensor.data` becomes a view of it; `m`
    and `v` have the same length. Between steps the optimizer holds these three buffers
    alone: each step allocates its gradient and scratch buffers and drops
    them when it returns. `lr_runs` holds the lr scales as (start, stop,
    scale) runs over `flat`, one per stretch of equal scale. Write a
    parameter in place (`t.data[...] = x`), never rebind it (`t.data = x`):
    a rebound tensor has left the buffer, so the optimizer neither reads nor
    moves it.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        betas: tuple[float, float],
        eps: float,
        weight_decay: float,
        lr_scales: dict[str, float] | None = None,
    ):
        self.params = dict(params)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0  # steps taken
        sizes = [p.data.size for p in self.params.values()]
        ends = np.cumsum(sizes).tolist()
        scales = lr_scales or {}
        self.lr_runs: list[tuple[int, int, float]] = []
        for name, a, b in zip(self.params, [0, *ends], ends):
            scale = scales.get(name, 1.0)
            if self.lr_runs and self.lr_runs[-1][2] == scale:
                a = self.lr_runs.pop()[0]
            self.lr_runs.append((a, b, scale))
        # one allocation: the parameters and their two moments
        self.flat, self.m, self.v = np.zeros((3, sum(sizes)), np.result_type(*(p.data for p in params.values())))
        for p, part in zip(self.params.values(), np.split(self.flat, ends[:-1])):
            view = part.reshape(p.shape)
            view[...] = p.data
            p.data = view

    def step(self, grads: dict[str, Array], lr: float) -> None:
        """Update every parameter in one in-place pass at rate `lr`; a name
        missing from `grads` has a zero gradient. Each line below is one
        factor or addend of the per-tensor expression, so the result is the
        same to the bit."""
        # the gradient, flattened in C order and parameter order as `flat`
        # holds the parameters; it ends as the update
        g = np.concatenate(
            [grads[name] if name in grads else np.zeros_like(p.data) for name, p in self.params.items()],
            axis=None,
        )
        s = np.empty_like(g)
        b1, b2 = self.betas
        self.t += 1
        m, v = self.m, self.v
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s  # m = b1 * m + (1 - b1) * g
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v *= b2
        v += s  # v = b2 * v + (1 - b2) * g * g
        np.divide(m, 1.0 - b1**self.t, out=g)  # m_hat
        np.divide(v, 1.0 - b2**self.t, out=s)  # v_hat
        np.sqrt(s, out=s)
        s += self.eps
        g /= s
        np.multiply(self.flat, self.weight_decay, out=s)
        g += s
        for a, b, scale in self.lr_runs:
            g[a:b] *= scale * lr
        self.flat -= g

    # ---- checkpoint support ----
    def state_arrays(self) -> dict[str, np.ndarray]:
        """The moments under the names a checkpoint stores them: `opt.m` and
        `opt.v`, each one flat buffer in parameter order."""
        return {"opt.m": self.m, "opt.v": self.v}

    def load_state(self, meta: dict, arrays: Mapping[str, np.ndarray]) -> None:
        """Resume after `meta["step"]` steps with the moments `arrays` holds
        under the `state_arrays` names, saved for the parameters that
        `meta["trainable"]` names. Moments missing, or saved for another
        trainable set, raise `DataError` before any is read; a moment of
        another length raises before it is copied. Each moment is read once,
        so a checkpoint's entries are held one at a time."""
        for key, buf in self.state_arrays().items():
            if key not in arrays:
                raise DataError(f"optimizer state {key!r}: expected shape {buf.shape}, got nothing")
        if meta.get("trainable") != list(self.params):
            raise DataError(
                f"optimizer state 'opt.m' and 'opt.v' were saved for another trainable set "
                f"than the {len(self.params)} parameters trained here"
            )
        for key, buf in self.state_arrays().items():
            saved = arrays[key]
            if saved.shape != buf.shape:
                raise DataError(f"optimizer state {key!r}: expected shape {buf.shape}, got {saved.shape}")
            buf[...] = saved
        self.t = int(meta["step"])


def clip_global_norm(grads: dict[str, Array], max_norm: float) -> dict[str, Array]:
    """Scale all gradients jointly so their global L2 norm is at most max_norm.
    Returns `grads` itself when nothing is scaled."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))  # summed in float64
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}


def cosine_schedule(
    step: int,
    total_steps: int,
    base_lr: float,
    warmup_steps: int,
    min_lr: float,
) -> float:
    """Linear warmup from zero to base_lr, then a cosine decay to min_lr."""
    if total_steps <= 0:
        return base_lr
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    frac = min(max((step - warmup_steps) / span, 0.0), 1.0)
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * frac))
