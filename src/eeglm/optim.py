"""AdamW with decoupled weight decay, gradient clipping and a cosine schedule."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Array, Tensor
from .errors import DataError


class AdamW:
    """Bias-corrected AdamW, the one owner of a stage's parameters and moments.

    Weight decay is decoupled from the moment estimates:
    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p).
    The parameters, in dict order, are copied into one contiguous f64 buffer
    `flat`, and each `Tensor.data` becomes a view of it; `m` and `v` have the
    same length. Between steps the optimizer holds these three buffers
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
        self._cuts = ends[:-1]
        scales = lr_scales or {}
        self.lr_runs: list[tuple[int, int, float]] = []
        for name, a, b in zip(self.params, [0, *ends], ends):
            scale = scales.get(name, 1.0)
            if self.lr_runs and self.lr_runs[-1][2] == scale:
                a = self.lr_runs.pop()[0]
            self.lr_runs.append((a, b, scale))
        # one allocation: the parameters and their two moments
        self.flat, self.m, self.v = np.zeros((3, sum(sizes)))
        for name, view in self._views(self.flat).items():
            view[...] = self.params[name].data
            self.params[name].data = view

    def _views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        parts = np.split(buf, self._cuts)
        return {name: part.reshape(p.shape) for (name, p), part in zip(self.params.items(), parts)}

    def step(self, grads: dict[str, Array], lr: float) -> None:
        """Update every parameter in one in-place pass at rate `lr`; a name
        missing from `grads` has a zero gradient. Each line below is one
        factor or addend of the per-tensor expression, so the result is the
        same to the bit."""
        # the gradient, flattened in C order and parameter order as `flat`
        # holds the parameters; it ends as the update
        g = np.concatenate(
            [grads[name] if name in grads else np.zeros(p.shape) for name, p in self.params.items()],
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
        """Views of the moments keyed `opt.m/<name>`, then `opt.v/<name>`, in
        parameter order: the names a checkpoint stores them under."""
        return {
            f"opt.{key}/{name}": view
            for key, buf in (("m", self.m), ("v", self.v))
            for name, view in self._views(buf).items()
        }

    def load_state(self, step: int, arrays: dict[str, np.ndarray]) -> None:
        """Resume after `step` steps with the moments `arrays` holds under the
        `state_arrays` names. A moment that is missing or of another shape,
        or one stored for a parameter this optimizer does not own, raises
        `DataError`: the arrays come from a run that trained another set."""
        state = self.state_arrays()
        for key in arrays:
            if key.startswith("opt.") and key not in state:
                raise DataError(f"optimizer state {key!r} is for a parameter not trained here")
        for key, view in state.items():
            if key not in arrays or np.shape(arrays[key]) != view.shape:
                got = np.shape(arrays[key]) if key in arrays else "nothing"
                raise DataError(f"optimizer state {key!r}: expected shape {view.shape}, got {got}")
            view[...] = arrays[key]
        self.t = int(step)


def clip_global_norm(grads: dict[str, Array], max_norm: float) -> dict[str, Array]:
    """Scale all gradients jointly so their global L2 norm is at most max_norm.
    Returns `grads` itself when nothing is scaled."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
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
