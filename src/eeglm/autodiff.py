"""Dense `DTYPE` (float32) tensors with tape-based reverse-mode automatic differentiation.

A `Graph` is an append-only tape recording every differentiable operation
executed while it is the active context. A tape lives for one `with Graph()`
block: on exit the graph drops its nodes, so the step's intermediate tensors
are freed by reference counting as soon as nothing else holds them, and
`backward` must run inside the block. `backward` walks the tape once in
reverse construction order, accumulating vector-Jacobian products additively
at fan-out points, and releases each node as it passes it, so a tape can
be swept only once. There is no higher-order differentiation: gradients are
plain numpy arrays, not tensors on a tape.

The fused primitives each record one node whose vjp replays, in the same
order, the numpy expressions of the chain of smaller ops it stands for:

- `linear`: x @ w.T, an optional low-rank adapter and a bias;
- `ffn`: linear -> gelu -> linear;
- `attention_layer`: the query, key and value projections, multi-head
  scaled dot-product attention and the output projection, with adapters
  and causal masking;
- `conv1d`: one im2col matrix product forward, two backward;
- `mix`: a constant matrix along one axis (reshape, matmul, reshape).

`eeglm.losses` builds its span and reconstruction losses as such nodes too.
A node keeps only what its vjp reads, and rebuilds what is cheap to
recompute from its inputs instead of holding it: `ffn` recomputes its
activation and `conv1d` its im2col columns.

A fused node lists an input once per use, in the order the unfused chain's
vjps reach it, so `backward` sums an input's gradient in the same order
(for self-attention: value, then key, then query projection). Heads are
split and merged by numpy reshapes and transposes inside the node, so the
tape records no view op for the head layout.

`linear`, `ffn`, `attention_layer`, `conv1d` and `mix` take leading axes
that index a batch (of recordings, in the encoder). Each member of a batch
gets its own matrix products, as one stacked `np.matmul`, never one product
over the merged batch: OpenBLAS picks its kernel by matrix shape, so a
merged product would give other bits than the member alone.

Operations validate shapes eagerly and raise instead of producing NaN/Inf;
each leaves only finite values behind, in arrays of its inputs' dtype.

gelu's erf is scipy's compiled ufunc, loaded from its extension module alone
(`_load_erf`): importing this module does not import the `scipy.special`
package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray
DTYPE = np.float32  # of every tensor made from outside values

_ERF_MODULE = "scipy.special._special_ufuncs"


def _load_erf(search: Sequence[str]):
    """scipy's erf ufunc, from its compiled module in the `search` directories
    alone, without running the `scipy.special` package's __init__. The module
    is registered under its own name, so a later `import scipy.special` reuses
    it and its `erf` is this object. Where the module or its `erf` is missing
    (older scipy releases), this imports the package."""
    module = sys.modules.get(_ERF_MODULE)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(_ERF_MODULE, search)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_ERF_MODULE] = module
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


_SCIPY = importlib.util.find_spec("scipy")
_erf = _load_erf([os.path.join(d, "special") for d in (_SCIPY.submodule_search_locations if _SCIPY else ())])

_GRAPH_STACK: list["Graph"] = []

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Graph:
    """Append-only tape of recorded operations, used as a context manager.

    The tape lives for one `with` block. On exit `nodes` becomes None, which
    releases every recorded node and, with them, the intermediate tensors
    only the tape kept alive; `backward` on a loss from a released graph
    raises. Call `backward` (and read `len(graph)`) inside the block.
    `backward` sets each slot of `nodes` to None as it passes it, so a tape
    can be swept only once, and `len(graph)` still counts the recorded nodes
    after the sweep.
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
    return math.isfinite(np.add.reduce(arr, axis=None)) or bool(np.isfinite(arr).all())


def _finite(arr: Array) -> Array:
    """`arr`, or NumericError if it holds a NaN or inf: the check every
    computed value passes, intermediates of fused nodes included."""
    if not _all_finite(arr):
        raise NumericError("operation produced non-finite values")
    return arr


def _active_graph() -> Graph | None:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


class Tensor:
    """A dense array of `DTYPE` plus a flag marking it as differentiable."""

    __slots__ = ("data", "requires_grad", "graph", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=DTYPE)
        if not _all_finite(arr):
            raise NumericError("tensor initialised with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.graph: Graph | None = None

    @classmethod
    def _wrap(cls, arr: Array) -> "Tensor":
        return cls._view(_finite(arr))

    @classmethod
    def _view(cls, arr: Array) -> "Tensor":
        """Wrap without the finiteness check: for values taken from finite
        tensors unchanged (reshapes, transposes, slices, gathers, joins)."""
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.graph = None
        return t

    # ---- introspection ----
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    graph = _active_graph()
    if graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.graph = graph
        graph.nodes.append(_Node(out, inputs, vjp))
    return out


def backward(loss: Tensor, wrt: Iterable[Tensor]) -> dict[Tensor, Array]:
    """Reverse sweep from a scalar loss: the gradient of each tensor in `wrt`.

    The mapping holds exactly the tensors listed in `wrt`, with zeros for
    those the loss does not depend on. Every other gradient is dropped as
    soon as its node's vjp has used it, so the sweep holds no more than the
    gradients still to be propagated, and each tape node is released once
    the sweep has passed it: a second `backward` on the graph raises.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    keep = dict.fromkeys(wrt)
    grads: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    graph = loss.graph
    if graph is not None:
        if graph.nodes is None:
            raise RuntimeError(
                "backward called after the loss's Graph exited and released its tape; "
                "call backward inside the `with Graph()` block"
            )
        nodes = graph.nodes
        for i in reversed(range(len(nodes))):
            node = nodes[i]
            if node is None:
                raise RuntimeError(
                    "backward called on a graph an earlier backward released; a tape can be swept only once"
                )
            nodes[i] = None  # `node` keeps it alive until its vjp has run
            gout = grads.get(node.out) if node.out in keep else grads.pop(node.out, None)
            if gout is None:
                continue
            for inp, gin in zip(node.inputs, node.vjp(gout)):
                if gin is None or not inp.requires_grad:
                    continue
                acc = grads.get(inp)
                grads[inp] = gin if acc is None else acc + gin
    return {t: grads[t] if t in grads else np.zeros_like(t.data) for t in keep}


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


def sqrt(a) -> Tensor:
    """Square root; its gradient at 0 is 0 (a norm's subgradient at its minimum), not inf."""
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        out = Tensor._wrap(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (np.divide(g / 2, out.data, out=np.zeros_like(g), where=out.data > 0),))


def _gelu(x: Array) -> tuple[Array, Array]:
    """gelu on arrays: (x * cdf, cdf), cdf = 0.5*(1 + erf(x/sqrt(2)))."""
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_grad(g: Array, x: Array, cdf: Array) -> Array:
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return g * (cdf + x * pdf)


def gelu(a) -> Tensor:
    """Exact Gaussian-error-function gelu: 0.5*x*(1 + erf(x/sqrt(2)))."""
    a = as_tensor(a)
    y, cdf = _gelu(a.data)
    out = Tensor._wrap(y)
    return _record(out, (a,), lambda g: (_gelu_grad(g, a.data, cdf),))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    try:
        out = Tensor._view(a.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.data.shape} to {shape}") from e
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = Tensor._view(np.concatenate([t.data for t in ts], axis=axis))
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
    out = Tensor._view(a.data[key])

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _record(out, (a,), vjp)


def take(a, indices) -> Tensor:
    """Row gather along axis 0 with duplicate-aware backward."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor._view(a.data[idx])

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
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


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _swap_last(arr: Array) -> Array:
    return arr.swapaxes(-1, -2)


def mix(mat: Array, x, lead: int = 0) -> Tensor:
    """The constant (n_out, n_in) matrix `mat` applied along axis `lead` of
    x, of length n_in: out[..., i, :] = sum_j mat[i, j] * x[..., j, :]. One
    node with x as its only input; values and gradient are those of the
    chain that flattens x to (n_in, -1), multiplies by `mat` as a tensor and
    restores the shape. The `lead` axes before it index a batch: each index
    has its own product, in one stacked matmul."""
    x = as_tensor(x)
    shape = x.data.shape
    if shape[lead : lead + 1] != mat.shape[1:]:
        raise ShapeError(f"mix of a {mat.shape} matrix needs x's axis {lead} of its width, got {shape}")
    n_out, n_in = mat.shape
    batch = shape[:lead]
    mat = mat.astype(x.data.dtype, copy=False)
    out = Tensor._wrap(np.matmul(mat, x.data.reshape(batch + (n_in, -1))).reshape(batch + (n_out,) + shape[lead + 1 :]))
    return _record(out, (x,), lambda g: (np.matmul(mat.T, g.reshape(batch + (n_out, -1))).reshape(shape),))


def _weight_grad(x: Array, g: Array, w: Tensor) -> Array | None:
    """Gradient of x @ w.T with respect to w (None when w is frozen), summed
    over x's leading axes."""
    if not w.requires_grad:
        return None
    return np.transpose(_unbroadcast(np.matmul(_swap_last(x), g), w.data.shape[::-1]))


Lora = tuple[Tensor, Tensor, float]
# (w, b, lora): one affine map as `linear` takes it, for the fused nodes
Affine = tuple[Tensor, "Tensor | None", "Lora | None"]


def _affine(x: Array, w: Tensor, b: Tensor | None, lora: Lora | None) -> tuple[Array, Array | None]:
    """`linear`'s forward on arrays: (y, low), with low = x @ a.T the
    adapter's rank-r product (None without an adapter)."""
    if x.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"linear needs >=2-D x and 2-D w, got {x.shape} and {w.data.shape}")
    if x.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"linear mismatch: x {x.shape} vs weight {w.data.shape}")
    y = np.matmul(x, w.data.T)
    low = None
    if lora is not None:
        a, lb, scale = lora
        low = np.matmul(x, a.data.T)
        y += np.matmul(low, lb.data.T) * scale
    if b is not None:
        y += b.data
    return y, low


def _affine_inputs(x: Tensor | None, w: Tensor, b: Tensor | None, lora: Lora | None) -> tuple[Tensor, ...]:
    """The inputs `linear` records, in its order. With an adapter x enters
    twice, once per product, the adapter's first: `backward` then adds the
    adapter's share first, as in the unfused chain. x is None for an input
    computed inside a fused node, which the tape does not see."""
    xs = () if x is None else (x,)
    main = xs + ((w,) if b is None else (w, b))
    return main if lora is None else xs + (lora[0], lora[1]) + main


def _affine_grads(
    g: Array, x: Array, low: Array | None, need_x: bool,
    w: Tensor, b: Tensor | None, lora: Lora | None,
) -> list[Array | None]:
    """`linear`'s vjp on arrays, aligned with `_affine_inputs` (x given)."""
    grads: list[Array | None] = []
    if lora is not None:
        a, lb, scale = lora
        gt = g * scale
        glow = np.matmul(gt, lb.data) if need_x or a.requires_grad else None
        gx_lora = np.matmul(glow, a.data) if need_x else None
        grads += [gx_lora, _weight_grad(x, glow, a), _weight_grad(low, gt, lb)]
    gx = np.matmul(g, w.data) if need_x else None
    grads += [gx, _weight_grad(x, g, w)]
    if b is not None:
        grads.append(_unbroadcast(g, b.data.shape))
    return grads


def _inner_grads(grads: list, lora: Lora | None) -> tuple[Array | None, list]:
    """Split `_affine_grads` of an input computed inside a fused node into
    that input's gradient, summed as `backward` would sum it, and the
    parameters' gradients, aligned with `_affine_inputs(None, ...)`."""
    if lora is None:
        return grads[0], grads[1:]
    gx = None if grads[0] is None else grads[0] + grads[3]
    return gx, grads[1:3] + grads[4:]


def _needs_grad(x: Tensor, affine: Affine) -> bool:
    """Whether the unfused chain would record `linear(x, *affine)`."""
    return any(t.requires_grad for t in _affine_inputs(x, *affine))


def linear(x, w, b=None, lora: Lora | None = None) -> Tensor:
    """x @ w.T (+ scale * (x @ a.T) @ lora_b.T) (+ b) as one tape node.

    `lora` is (a, lora_b, scale) for a low-rank adapter on the weight. The
    values and gradients are those of the unfused chain of matmul,
    transpose, mul and add nodes, computed by the same numpy expressions in
    the same order.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    y, low = _affine(x.data, w, b, lora)
    out = Tensor._wrap(y)
    return _record(
        out, _affine_inputs(x, w, b, lora),
        lambda g: _affine_grads(g, x.data, low, x.requires_grad, w, b, lora),
    )


def ffn(x, fc1: Affine, fc2: Affine) -> Tensor:
    """linear(gelu(linear(x, *fc1)), *fc2) as one tape node.

    Values and gradients are those of the three-node chain, bit for bit;
    every intermediate passes the finiteness check its own node would. The
    node holds the pre-activation h and the gelu's cdf, and its vjp
    recomputes the activation h * cdf rather than holding it.
    """
    x = as_tensor(x)
    h, low1 = _affine(x.data, *fc1)
    a, cdf = _gelu(_finite(h))
    y, low2 = _affine(_finite(a), *fc2)
    out = Tensor._wrap(y)

    def vjp(g: Array):
        ga, grads = _inner_grads(_affine_grads(g, h * cdf, low2, _needs_grad(x, fc1), *fc2), fc2[2])
        if ga is None:
            return grads + [None] * len(_affine_inputs(x, *fc1))
        return grads + _affine_grads(_gelu_grad(ga, h, cdf), x.data, low1, x.requires_grad, *fc1)

    return _record(out, _affine_inputs(None, *fc2) + _affine_inputs(x, *fc1), vjp)


# ---------------------------------------------------------------------------
# normalisation and attention helpers
# ---------------------------------------------------------------------------

_CAUSAL_MASK = np.zeros((0, 0))


def _causal_mask(n: int, dtype) -> Array:
    """Read-only (n', n') additive mask of `dtype`, n' >= n: -1e9 above the diagonal,
    0 elsewhere. One array is cached and rebuilt on demand; callers slice it."""
    global _CAUSAL_MASK
    if _CAUSAL_MASK.shape[0] < n or _CAUSAL_MASK.dtype != dtype:
        _CAUSAL_MASK = np.triu(np.full((n, n), -1e9, dtype=dtype), k=1)
        _CAUSAL_MASK.setflags(write=False)
    return _CAUSAL_MASK


def _attend(q: Array, k: Array, v: Array, n_heads: int, causal: bool, positions):
    """Multi-head scaled dot-product attention on arrays.

    q is (..., Tq, E), k and v are (..., Tk, E), with the same leading axes,
    each index of which attends on its own; E splits into `n_heads` heads of
    width E/n_heads, scaled by 1/sqrt(E/n_heads). Returns the heads' mixed
    values merged back to (..., Tq, E), the softmax weights (..., n_heads,
    Tq, Tk), and `grads(g, need_q, need_k, need_v)`, which gives (gq, gk, gv) for an
    output gradient g, None where not needed. With `causal`, the query at
    position p sees keys j <= p (a -1e9 additive mask); `positions` gives
    the Tq query positions, 0..Tq-1 by default, so a subset of a sequence's
    queries can attend to all of its keys. The gradient works from the saved
    softmax output, as FlashAttention's backward does (Dao et al. 2022),
    without tiling. The softmax and its vjp run in place on one
    (..., n_heads, Tq, Tk) buffer each; forward and vjp apply the same IEEE
    operations, in the same order, as the unfused chain that splits the
    heads with reshape and transpose, then runs matmul, mul, add, softmax
    and matmul and merges them back.
    """
    if (
        q.ndim < 2
        or k.ndim != q.ndim
        or k.shape != v.shape
        or q.shape[:-2] != k.shape[:-2]
        or q.shape[-1] != k.shape[-1]
        or n_heads < 1
        or q.shape[-1] % n_heads != 0
    ):
        raise ShapeError(
            f"attention over {n_heads} heads needs q (..., Tq, E) and k, v (..., Tk, E) "
            f"with E divisible by the heads; got q {q.shape}, k {k.shape}, v {v.shape}"
        )
    lead, (tq, e), tk = q.shape[:-2], q.shape[-2:], k.shape[-2]
    dh = e // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(x: Array, t: int) -> Array:
        return x.reshape(lead + (t, n_heads, dh)).swapaxes(-3, -2)

    def merge(x: Array, t: int) -> Array:
        return x.swapaxes(-3, -2).reshape(lead + (t, e))

    qh, kh, vh = split(q, tq), split(k, tk), split(v, tk)
    w = np.matmul(qh, _swap_last(kh))
    w *= scale
    if causal:
        if positions is None:
            w += _causal_mask(max(tq, tk), w.dtype)[:tq, :tk]
        else:
            pos = np.asarray(positions, dtype=np.int64)
            if pos.shape != (tq,) or (tq and (pos.min() < 0 or pos.max() >= tk)):
                raise ShapeError(
                    f"attention needs {tq} query positions in [0, {tk}), got {pos.tolist()}"
                )
            w += _causal_mask(tk, w.dtype)[pos, :tk]
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)

    def grads(g: Array, need_q: bool, need_k: bool, need_v: bool):
        g = split(g, tq)
        gv = merge(np.matmul(_swap_last(w), g), tk) if need_v else None
        if not (need_q or need_k):
            return None, None, gv
        gs = np.matmul(g, _swap_last(vh))
        gs -= np.add.reduce(gs * w, axis=-1, keepdims=True)
        gs *= w
        gs *= scale
        gq = merge(np.matmul(gs, kh), tq) if need_q else None
        gk = merge(_swap_last(np.matmul(_swap_last(qh), gs)), tk) if need_k else None
        return gq, gk, gv

    return merge(np.matmul(w, vh), tq), w, grads


def attention_layer(
    query, key_value, wq: Affine, wk: Affine, wv: Affine, wo: Affine,
    n_heads: int, causal: bool = False, positions=None,
) -> tuple[Tensor, Array]:
    """The attention sub-layer as one tape node: the output projection `wo`
    of the attention (see `_attend`) between the query projection `wq` of
    `query` and the key and value projections `wk`, `wv` of `key_value`.

    Each projection is (w, b, lora) as `linear` takes it. Returns the output
    (..., Tq, E) and the softmax weights (..., n_heads, Tq, Tk) as a plain
    array; leading axes, the same on `query` and `key_value`, index a batch
    whose members attend on their own, one stacked matmul per product.
    Values and gradients are those of the chain of four `linear` nodes and
    one attention node, bit for bit, and every intermediate passes the
    finiteness check its own node would. Self-attention passes one tensor
    as `query` and `key_value`; its gradient then sums the value, key and
    query projections' shares in that order, as the chain's vjps reach it.
    """
    query, key_value = as_tensor(query), as_tensor(key_value)
    q, low_q = _affine(query.data, *wq)
    k, low_k = _affine(key_value.data, *wk)
    v, low_v = _affine(key_value.data, *wv)
    mixed, weights, attend_grads = _attend(
        _finite(q), _finite(k), _finite(v), n_heads, causal, positions
    )
    y, low_o = _affine(_finite(mixed), *wo)
    out = Tensor._wrap(y)
    # in the order the unfused chain's vjps run: value, key, query
    projections = ((key_value, low_v, wv), (key_value, low_k, wk), (query, low_q, wq))
    inputs = _affine_inputs(None, *wo)
    for x, _, proj in projections:
        inputs += _affine_inputs(x, *proj)

    def vjp(g: Array):
        need_v, need_k, need_q = (_needs_grad(x, proj) for x, _, proj in projections)
        g_mixed, grads = _inner_grads(
            _affine_grads(g, mixed, low_o, need_q or need_k or need_v, *wo), wo[2]
        )
        gq, gk, gv = (None, None, None)
        if g_mixed is not None:
            gq, gk, gv = attend_grads(g_mixed, need_q, need_k, need_v)
        for (x, low, proj), gp in zip(projections, (gv, gk, gq)):
            if gp is None:
                grads += [None] * len(_affine_inputs(x, *proj))
            else:
                grads += _affine_grads(gp, x.data, low, x.requires_grad, *proj)
        return grads

    return _record(out, inputs, vjp), weights


def _mean_last(a: Array) -> Array:
    """a.mean(axis=-1, keepdims=True), which is this sum and division,
    without the Python layers of `ndarray.mean`."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalise over the last axis, then apply a learned affine map."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.data.shape != x.data.shape[-1:] or beta.data.shape != x.data.shape[-1:]:
        raise ShapeError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match feature dim of {x.data.shape}"
        )
    mu = _mean_last(x.data)
    xc = x.data - mu
    var = _mean_last(xc * xc)
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
            - _mean_last(dxhat)
            - xhat * _mean_last(dxhat * xhat)
        )
        return dx, dgamma, dbeta

    return _record(out, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _im2col(x: Array, k: int, stride: int, padding: int, lout: int) -> Array:
    """The (..., Cin*K, N*Lout) im2col columns of x (..., N, Cin, L), one
    matrix per leading index, laid out as numpy's einsum lays them out for
    "nilk,oik->nol" (read transposed from (N*Lout, K) rows when Cin is 1)."""
    lead, (n, cin, length) = x.shape[:-3], x.shape[-3:]
    xp = np.zeros(lead + (n, cin, length + 2 * padding), dtype=x.dtype)
    xp[..., padding : padding + length] = x
    # the windows, win[..., n, i, l, j] = xp[..., n, i, l*stride + j], as a read-only view
    *sb, sn, si, sl = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, lead + (n, cin, lout, k), (*sb, sn, si, stride * sl, sl), writeable=False
    )
    if cin == 1:
        return _swap_last(np.ascontiguousarray(win[..., 0, :, :]).reshape(lead + (n * lout, k)))
    b = len(lead)
    return win.transpose(*range(b), b + 1, b + 3, b, b + 2).reshape(lead + (cin * k, n * lout))


def conv1d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation: x (..., N, Cin, L) with kernels w (Cout, Cin, K).

    The forward is one im2col matrix product, (Cout, Cin*K) kernels times
    (Cin*K, N*Lout) columns, and the weight and input gradients are one
    product each. The node does not hold the columns: the vjp rebuilds them
    from x. They are laid out as einsum lays them out (see `_im2col`), so
    the products are einsum's BLAS calls and give its bits on the
    encoder's three convs (checked for N from 1 to 120). Where einsum
    leaves BLAS for its own loop, on some geometries with an axis of
    length 1 (Cin, Cout, K, N or Lout), the two can differ by a few units
    in the last place of the largest value. Leading axes of x index a batch
    whose members each get their own products, in one stacked matmul; the
    weight gradient sums theirs.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim < 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d needs x (..., N, Cin, L) and 3-D w, got {x.data.shape}, {w.data.shape}")
    lead, (n, cin, length) = x.data.shape[:-3], x.data.shape[-3:]
    cout, cin_w, k = w.data.shape
    if cin != cin_w:
        raise ShapeError(f"conv1d channel mismatch: x {x.data.shape} vs w {w.data.shape}")
    lout = (length + 2 * padding - k) // stride + 1
    if lout <= 0:
        raise ShapeError(f"conv1d produces empty output for L={length}, K={k}")
    inputs: tuple[Tensor, ...] = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (cout,):
            raise ShapeError(f"conv1d bias shape {b.data.shape} != ({cout},)")
        inputs = (x, w, b)
    kernels = w.data.reshape(cout, cin * k)
    out_data = np.matmul(kernels, _im2col(x.data, k, stride, padding, lout))
    if b is not None:
        out_data += b.data[:, None]
    out = Tensor._wrap(out_data.reshape(lead + (cout, n, lout)).swapaxes(-3, -2))

    def vjp(g: Array):
        g_rows = _swap_last(g).reshape(lead + (n * lout, cout))
        dw = np.matmul(_im2col(x.data, k, stride, padding, lout), g_rows)
        dw = _unbroadcast(dw, (cin * k, cout)).reshape(cin, k, cout).transpose(2, 0, 1)
        dx = None
        if x.requires_grad:
            g_cols = g.swapaxes(-3, -2).reshape(lead + (cout, n * lout))
            dcols = np.matmul(np.transpose(kernels), g_cols).reshape(lead + (cin, k, n, lout))
            dxp = np.zeros(lead + (n, cin, length + 2 * padding), dtype=dcols.dtype)
            # by tap, highest first: each position sums its terms in ascending
            # output order, the order of a loop over output positions
            for j in range(k - 1, -1, -1):
                dxp[..., j : j + stride * (lout - 1) + 1 : stride] += dcols[..., j, :, :].swapaxes(-3, -2)
            dx = dxp[..., padding : padding + length] if padding else dxp
        if b is not None:
            return dx, dw, g.sum(axis=tuple(range(g.ndim - 2)) + (g.ndim - 1,))
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


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------

def parameter(shape: tuple[int, ...], rng: np.random.Generator, fan_in: int | None = None) -> Tensor:
    """Trainable tensor initialised uniformly in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if fan_in is None:
        fan_in = shape[-1] if shape else 1
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
