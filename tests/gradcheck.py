"""Finite-difference oracles for validating analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from eeglm.autodiff import Graph, Tensor, backward


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest absolute difference, relative to the largest gradient magnitude.

    Normalising by the global scale (rather than elementwise) keeps genuinely
    zero gradient entries from being flagged over finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(1e-8, float(np.max(np.abs(a))), float(np.max(np.abs(n))))
    return float(np.max(np.abs(a - n)) / scale)


def check_gradients(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Full elementwise central-difference check.

    `fn` maps the given tensors to a scalar loss tensor. Returns the worst
    relative error between the analytic gradient and (f(x+h)-f(x-h))/(2h)
    across every element of every differentiable input.
    """
    with Graph():
        loss = fn(inputs)
        grads = backward(loss, wrt=list(inputs))
    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = grads[t]
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(fn(inputs).data)
            flat[i] = orig - h
            f_minus = float(fn(inputs).data)
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2.0 * h)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def check_directional(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    rng: np.random.Generator,
    h: float = 1e-5,
) -> float:
    """Directional-derivative check for large composite functions.

    Draws one random unit direction over the concatenation of all
    differentiable inputs and compares <grad, v> against the symmetric
    difference quotient along v (two forward evaluations). Returns the
    relative error of the two scalars.
    """
    with Graph():
        loss = fn(inputs)
        grads = backward(loss, wrt=list(inputs))
    live = [t for t in inputs if t.requires_grad]
    direction = [rng.standard_normal(t.data.shape) for t in live]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]

    analytic = sum(float(np.sum(grads[t] * d)) for t, d in zip(live, direction))

    # written in place, never rebound: an optimizer may own these buffers
    originals = [t.data.copy() for t in live]
    for t, d, o in zip(live, direction, originals):
        t.data[...] = o + h * d
    f_plus = float(fn(inputs).data)
    for t, d, o in zip(live, direction, originals):
        t.data[...] = o - h * d
    f_minus = float(fn(inputs).data)
    for t, o in zip(live, originals):
        t.data[...] = o
    numeric = (f_plus - f_minus) / (2.0 * h)
    return relative_error(np.asarray(analytic), np.asarray(numeric))
