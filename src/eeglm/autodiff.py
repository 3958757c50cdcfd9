"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

A `Graph` is an append-only tape recording every differentiable operation
executed while it is the active context. A tape lives for one `with Graph()`
block: on exit the graph drops its nodes, so the step's intermediate tensors
are freed by reference counting as soon as nothing else holds them, and
`backward` must run inside the block. `backward` walks the tape once in
reverse construction order, accumulating vector-Jacobian products additively
at fan-out points. There is no higher-order differentiation: gradients are
plain numpy arrays, not tensors on a tape.

`linear` and `attention` are fused primitives: each records one node whose
vjp replays, in the same order, the numpy expressions of the chain of
smaller ops it stands for.

Operations validate shapes eagerly and raise instead of producing NaN/Inf;
every completed operation leaves only finite values behind.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import NumericError, ShapeError

Array = np.ndarray

_GRAPH_STACK: list["Graph"] = []

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Graph:
    """Append-only tape of recorded operations, used as a context manager.

    The tape lives for one `with` block. On exit `nodes` becomes None, which
    releases every recorded node and, with them, the intermediate tensors
    only the tape kept alive; `backward` on a loss from a released graph
    raises. Call `backward` (and read `len(graph)`) inside the block.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[_Node] | None = []

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _GRAPH_STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("graph context stack corrupted")
        self.nodes = None

    def __len__(self) -> int:
        return len(self.nodes) if self.nodes is not None else 0


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out: "Tensor", inputs: tuple["Tensor", ...], vjp: Callable):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


def _all_finite(arr: Array) -> bool:
    """Exact finiteness test with a fast path: a finite sum means every value
    is finite; only a non-finite sum (a NaN or inf, or an overflow of finite
    values) pays for the elementwise check."""
    return math.isfinite(arr.sum()) or bool(np.isfinite(arr).all())


def _active_graph() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


class Tensor:
    """A dense float64 array plus a flag marking it as differentiable."""

    __slots__ = ("data", "requires_grad", "graph", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NumericError("tensor initialised with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.graph: Graph | None = None

    @classmethod
    def _wrap(cls, arr: Array) -> "Tensor":
        if not _all_finite(arr):
            raise NumericError("operation produced non-finite values")
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.graph = None
        return t

    # ---- introspection ----
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ---- operator sugar ----
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    graph = _active_graph()
    if graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.graph = graph
        graph.nodes.append(_Node(out, inputs, vjp))
    return out


def backward(loss: Tensor, wrt: Iterable[Tensor] | None = None) -> dict[Tensor, Array]:
    """Reverse sweep from a scalar loss.

    Returns a mapping from every reached tensor (leaves and intermediates)
    to its gradient array; tensors listed in `wrt` are guaranteed present,
    with zeros when the loss does not depend on them.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    graph = loss.graph
    if graph is not None:
        if graph.nodes is None:
            raise RuntimeError(
                "backward called after the loss's Graph exited and released its tape; "
                "call backward inside the `with Graph()` block"
            )
        for node in reversed(graph.nodes):
            gout = grads.get(node.out)
            if gout is None:
                continue
            for inp, gin in zip(node.inputs, node.vjp(gout)):
                if gin is None or not inp.requires_grad:
                    continue
                acc = grads.get(inp)
                grads[inp] = gin if acc is None else acc + gin
    if wrt is not None:
        for t in wrt:
            grads.setdefault(t, np.zeros_like(t.data))
    return grads


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data + b.data)

    def vjp(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data - b.data)

    def vjp(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor._wrap(a.data * b.data)

    def vjp(g: Array):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor._wrap(a.data / b.data)

    def vjp(g: Array):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _record(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.exp(a.data))
    return _record(out, (a,), lambda g: (g * out.data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor._wrap(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        out = Tensor._wrap(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g * 0.5 / out.data,))


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = Tensor._wrap(np.power(a.data, p))
    return _record(out, (a,), lambda g: (g * p * np.power(a.data, p - 1.0),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.tanh(a.data))
    return _record(out, (a,), lambda g: (g * (1.0 - out.data * out.data),))


def gelu(a) -> Tensor:
    """Exact Gaussian-error-function gelu: 0.5*x*(1 + erf(x/sqrt(2)))."""
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + _erf(a.data * _INV_SQRT2))
    out = Tensor._wrap(a.data * cdf)

    def vjp(g: Array):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (cdf + a.data * pdf),)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    try:
        out = Tensor._wrap(a.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.data.shape} to {shape}") from e
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(np.transpose(a.data, axes))
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    return _record(out, (a,), lambda g: (np.transpose(g, inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = Tensor._wrap(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: Array):
        pieces = []
        for i in range(len(ts)):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return _record(out, tuple(ts), vjp)


def slice_(a, key) -> Tensor:
    """Basic (non-fancy) indexing with slices and integers."""
    a = as_tensor(a)
    out = Tensor._wrap(a.data[key])

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _record(out, (a,), vjp)


def take(a, indices, axis: int = 0) -> Tensor:
    """Row gather along axis 0 with duplicate-aware backward."""
    if axis != 0:
        raise ShapeError("take supports axis=0 only")
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor._wrap(a.data[idx])

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _record(out, (a,), vjp)


def pick(a, rows, cols) -> Tensor:
    """Select a[rows[i], cols[i]] for each i from a 2-D tensor."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"pick needs a 2-D tensor, got {a.data.shape}")
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    out = Tensor._wrap(a.data[r, c])

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        np.add.at(full, (r, c), g)
        return (full,)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(a.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g: Array):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _record(out, (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _swap_last(arr: Array) -> Array:
    return np.swapaxes(arr, -1, -2)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs >=2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor._wrap(np.matmul(a.data, b.data))

    def vjp(g: Array):
        ga = _unbroadcast(np.matmul(g, _swap_last(b.data)), a.data.shape)
        gb = _unbroadcast(np.matmul(_swap_last(a.data), g), b.data.shape)
        return ga, gb

    return _record(out, (a, b), vjp)


def _weight_grad(x: Array, g: Array, w: Tensor) -> Array | None:
    """Gradient of x @ w.T with respect to w (None when w is frozen), summed
    over x's leading axes as the matmul and transpose vjps sum it."""
    if not w.requires_grad:
        return None
    return np.transpose(_unbroadcast(np.matmul(_swap_last(x), g), w.data.shape[::-1]))


def linear(x, w, b=None, lora: tuple[Tensor, Tensor, float] | None = None) -> Tensor:
    """x @ w.T (+ scale * (x @ a.T) @ lora_b.T) (+ b) as one tape node.

    `lora` is (a, lora_b, scale) for a low-rank adapter on the weight. The
    values and gradients are those of the unfused chain of matmul,
    transpose, mul and add nodes, computed by the same numpy expressions in
    the same order.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"linear needs >=2-D x and 2-D w, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear mismatch: x {x.data.shape} vs weight {w.data.shape}")
    y = np.matmul(x.data, np.transpose(w.data))
    # x enters twice with an adapter, once per product; listing it twice
    # keeps the adapter's share accumulated first, as in the unfused chain
    inputs: tuple[Tensor, ...] = (x, w)
    if lora is not None:
        a, lb, scale = lora
        low = np.matmul(x.data, np.transpose(a.data))
        y = y + np.matmul(low, np.transpose(lb.data)) * scale
        inputs = (x, a, lb) + inputs
    if b is not None:
        b = as_tensor(b)
        y = y + b.data
        inputs = inputs + (b,)
    out = Tensor._wrap(y)

    def vjp(g: Array):
        grads: list[Array | None] = []
        if lora is not None:
            gt = g * scale
            glow = np.matmul(gt, lb.data) if x.requires_grad or a.requires_grad else None
            gx_lora = np.matmul(glow, a.data) if x.requires_grad else None
            grads += [gx_lora, _weight_grad(x.data, glow, a), _weight_grad(low, gt, lb)]
        gx = np.matmul(g, w.data) if x.requires_grad else None
        grads += [gx, _weight_grad(x.data, g, w)]
        if b is not None:
            grads.append(_unbroadcast(g, b.data.shape))
        return grads

    return _record(out, inputs, vjp)


# ---------------------------------------------------------------------------
# normalisation and attention helpers
# ---------------------------------------------------------------------------

def _softmax_data(x: Array, axis: int) -> Array:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(y: Array, g: Array, axis: int) -> Array:
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    out = Tensor._wrap(_softmax_data(a.data, axis))
    return _record(out, (a,), lambda g: (_softmax_vjp(out.data, g, axis),))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor._wrap(y)

    def vjp(g: Array):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), vjp)


def attention(q, k, v, scale: float, causal: bool = False) -> tuple[Tensor, Array]:
    """Scaled dot-product attention as one tape node.

    q is (..., Tq, D), k and v are (..., Tk, D) with the same leading (head)
    axes. Returns the mixed values (..., Tq, D) and the softmax weights
    (..., Tq, Tk) as a plain array. With `causal`, query i sees keys j <= i
    (a -1e9 additive mask). The vjp works from the saved softmax output, as
    FlashAttention's backward does (Dao et al. 2022), without tiling, and
    replays the numpy expressions of the unfused matmul, transpose, mul,
    add, softmax and matmul chain.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if (
        q.data.ndim < 2
        or k.data.shape != v.data.shape
        or q.data.shape[:-2] != k.data.shape[:-2]
        or q.data.shape[-1] != k.data.shape[-1]
    ):
        raise ShapeError(
            f"attention shapes do not fit: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}"
        )
    scores = np.matmul(q.data, _swap_last(k.data)) * scale
    if causal:
        scores = scores + np.triu(np.full(scores.shape[-2:], -1e9), k=1)
    weights = _softmax_data(scores, -1)
    out = Tensor._wrap(np.matmul(weights, v.data))

    def vjp(g: Array):
        gv = np.matmul(_swap_last(weights), g) if v.requires_grad else None
        if not (q.requires_grad or k.requires_grad):
            return None, None, gv
        gs = _softmax_vjp(weights, np.matmul(g, _swap_last(v.data)), -1) * scale
        gq = np.matmul(gs, k.data) if q.requires_grad else None
        gk = _swap_last(np.matmul(_swap_last(q.data), gs)) if k.requires_grad else None
        return gq, gk, gv

    return _record(out, (q, k, v), vjp), weights


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalise over the last axis, then apply a learned affine map."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.data.shape != x.data.shape[-1:] or beta.data.shape != x.data.shape[-1:]:
        raise ShapeError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature dim of {x.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor._wrap(xhat * gamma.data + beta.data)

    def vjp(g: Array):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return _record(out, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv1d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation: x (N, Cin, L) with kernels w (Cout, Cin, K)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d needs 3-D x and w, got {x.data.shape}, {w.data.shape}")
    n, cin, length = x.data.shape
    cout, cin_w, k = w.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv1d channel mismatch: x {x.data.shape} vs w {w.data.shape}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    lout = (length + 2 * padding - k) // stride + 1
    if lout <= 0:
        raise ShapeError(f"conv1d produces empty output for L={length}, K={k}")
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
    out_data = np.einsum("nilk,oik->nol", win, w.data, optimize=True)
    inputs: tuple[Tensor, ...] = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (cout,):
            raise ShapeError(f"conv1d bias shape {b.data.shape} != ({cout},)")
        out_data = out_data + b.data[:, None]
        inputs = (x, w, b)
    out = Tensor._wrap(out_data)

    def vjp(g: Array):
        dw = np.einsum("nol,nilk->oik", g, win, optimize=True)
        dcols = np.einsum("nol,oik->nilk", g, w.data, optimize=True)
        dxp = np.zeros_like(xp)
        for l in range(lout):
            s = l * stride
            dxp[:, :, s : s + k] += dcols[:, :, l, :]
        dx = dxp[:, :, padding : padding + length] if padding else dxp
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2))
        return dx, dw

    return _record(out, inputs, vjp)


# ---------------------------------------------------------------------------
# quantizer pass-through
# ---------------------------------------------------------------------------

def straight_through(h: Tensor, z_q: Tensor) -> Tensor:
    """Forward the quantized values; route gradients to the continuous input."""
    h, z_q = as_tensor(h), as_tensor(z_q)
    if h.data.shape != z_q.data.shape:
        raise ShapeError(
            f"straight_through shapes differ: {h.data.shape} vs {z_q.data.shape}"
        )
    out = Tensor._wrap(z_q.data.copy())
    return _record(out, (h, z_q), lambda g: (g, None))


def detach(a: Tensor) -> Tensor:
    """Stop-gradient: same values, no tape connection."""
    return as_tensor(a).detach()


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------

def parameter(shape: tuple[int, ...], rng: np.random.Generator, fan_in: int | None = None) -> Tensor:
    """Trainable tensor initialised uniformly in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if fan_in is None:
        fan_in = shape[-1] if shape else 1
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros(shape: tuple[int, ...], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)
