"""Tensor/tape core: op semantics, gradient oracles, determinism."""

from __future__ import annotations

import gc
import math
import sys
import types
import weakref

import numpy as np
import pytest
import scipy.special

from eeglm import autodiff as ad
from eeglm.errors import NumericError, ShapeError
from eeglm.nn import MultiHeadAttention
from eeglm.topology import build_hierarchy, get_montage
from gradcheck import check_gradients, relative_error
from oracles import attention, detach, gelu, log_softmax, matmul, mean, pick, softmax, tanh, transpose


def t(data, rg=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = t(np.eye(2), rg=False)
    b = t([[1.0, 2.0], [3.0, 4.0]], rg=False)
    np.testing.assert_allclose(matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_projector():
    p = t([[1.0, 0.0], [0.0, 0.0]], rg=False)
    v = t([[5.0], [7.0]], rg=False)
    np.testing.assert_allclose(matmul(p, v).data, [[5.0], [0.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_softmax_uniform():
    out = softmax(t([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0))


def test_softmax_stability_no_overflow():
    out = softmax(t([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_softmax_rows_sum_to_one_and_bounded():
    rng = np.random.default_rng(3)
    x = t(rng.uniform(-5, 5, size=(6, 9)))
    y = softmax(x, axis=-1).data
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(6), atol=1e-12)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)


def test_layer_norm_constant_row_guarded_by_eps():
    x = t([[5.0, 5.0, 5.0]])
    out = ad.layer_norm(x, t(np.ones(3)), t(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)))


def test_layer_norm_normalisation_contract():
    out = ad.layer_norm(t([1.0, 2.0, 3.0]), t(np.ones(3)), t(np.zeros(3)))
    assert abs(out.data.mean()) < 1e-12
    assert abs(out.data.var() - 1.0) < 1e-4


def test_gelu_zero_is_zero():
    assert ad.gelu(t([0.0])).data[0] == 0.0


# the gelu inputs of the encoder's and the backbone's feed-forward layers
GELU_SHAPES = [(4, 16, 64), (193, 256), (16, 2, 64)]


@pytest.mark.parametrize("shape", GELU_SHAPES)
def test_gelu_matches_the_scipy_erf_chain_to_the_bit(shape):
    x = np.random.default_rng(47).normal(0.0, 3.0, shape).astype(ad.DTYPE)
    assert ad.gelu(t(x)).data.tobytes() == gelu(x).tobytes()


# ---------------------------------------------------------------------------
# erf loading and parameter initialisation
# ---------------------------------------------------------------------------

def test_erf_loader_falls_back_to_scipy_special_without_the_extension(monkeypatch, tmp_path):
    # older scipy releases have no erf extension module: the loader then
    # imports the package, whatever directory it searched
    monkeypatch.delitem(sys.modules, ad._ERF_MODULE)
    assert ad._load_erf([str(tmp_path)]) is scipy.special.erf
    assert ad._ERF_MODULE not in sys.modules


def test_erf_loader_falls_back_to_scipy_special_without_its_erf(monkeypatch):
    monkeypatch.setitem(sys.modules, ad._ERF_MODULE, types.ModuleType(ad._ERF_MODULE))
    assert ad._load_erf([]) is scipy.special.erf


def test_erf_loader_reads_the_extension_in_scipy_special(monkeypatch):
    monkeypatch.delitem(sys.modules, ad._ERF_MODULE)
    assert ad._load_erf(scipy.special.__path__) is scipy.special.erf
    assert sys.modules[ad._ERF_MODULE].erf is scipy.special.erf


@pytest.mark.parametrize(
    "shape, fan_in, bound",
    [((2, 3), 16, 0.25), ((2, 3), None, 1 / math.sqrt(3)), ((2, 3), 0, 1.0), ((), None, 1.0)],
    ids=["fan-in-16", "default-fan-in", "fan-in-0", "scalar"],
)
def test_parameter_is_uniform_within_one_over_root_fan_in(shape, fan_in, bound):
    p = ad.parameter(shape, np.random.default_rng(0), fan_in=fan_in)
    expected = np.random.default_rng(0).uniform(-bound, bound, shape).astype(ad.DTYPE)
    assert p.requires_grad and p.data.tobytes() == expected.tobytes()


def test_non_finite_construction_rejected():
    with pytest.raises(NumericError):
        ad.Tensor([1.0, np.inf])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_at_construction_and_by_ops(bad):
    with pytest.raises(NumericError):
        ad.Tensor([[1.0, 2.0], [bad, 3.0]])
    with pytest.raises(NumericError):  # the check every op's output passes
        ad.Tensor._wrap(np.array([[0.0, bad], [1.0, 2.0]]))


def test_finite_values_whose_sum_overflows_are_accepted():
    # the fast path sums the values; the sum overflows, the values do not
    big = np.finfo(ad.DTYPE).max
    with np.errstate(over="ignore"):
        x = ad.Tensor([big, big])
        y = ad.mul(x, 1.0)
    np.testing.assert_array_equal(y.data, [big, big])


def test_division_by_zero_raises_instead_of_inf():
    with pytest.raises(NumericError):
        ad.div(t([1.0]), t([0.0]))


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    w = t([1.0, 2.0, 3.0])
    with ad.Graph():
        loss = ad.sum_(w)
        grads = ad.backward(loss, wrt=[w])
    np.testing.assert_allclose(grads[w], np.ones(3))


def test_backward_dead_branch_gives_zeros():
    w = t([1.0, 2.0, 3.0])
    with ad.Graph():
        loss = ad.sum_(ad.mul(w, 0.0))
        grads = ad.backward(loss, wrt=[w])
    np.testing.assert_allclose(grads[w], np.zeros(3))


def test_backward_unreached_leaf_defined_as_zero():
    w = t([1.0, 2.0])
    other = t([5.0])
    with ad.Graph():
        loss = ad.sum_(w)
        grads = ad.backward(loss, wrt=[w, other])
    np.testing.assert_allclose(grads[other], np.zeros(1))


def test_backward_wrt_allocates_zeros_only_for_unreached_tensors(monkeypatch):
    w = t([1.0, 2.0])
    other = t([5.0])
    made = []
    zeros_like = np.zeros_like
    monkeypatch.setattr(ad.np, "zeros_like", lambda a: made.append(a.shape) or zeros_like(a))
    with ad.Graph():
        loss = ad.sum_(ad.mul(w, 3.0))
        grads = ad.backward(loss, wrt=[w, other])
    assert made == [(1,)]
    np.testing.assert_array_equal(grads[w], [3.0, 3.0])
    np.testing.assert_array_equal(grads[other], [0.0])


def test_backward_wrt_drops_unlisted_intermediates_and_keeps_the_gradients():
    rng = np.random.default_rng(17)
    attn = MultiHeadAttention(8, 2, rng)
    x = t(rng.uniform(-1, 1, (5, 8)))
    params = list(attn.named_parameters().values())

    def run(with_hidden):
        with ad.Graph():
            hidden = ad.gelu(attn(x, x)[0])
            loss = ad.sum_(tanh(hidden))
            wrt = [hidden, x, *params] if with_hidden else [x, *params]
            return wrt, ad.backward(loss, wrt=wrt)

    leaves_wrt, leaves = run(False)
    hidden_wrt, with_hidden = run(True)
    # exactly the listed tensors: no other intermediate, and no leaf unasked
    assert list(leaves) == leaves_wrt and list(with_hidden) == hidden_wrt
    for p in [x, *params]:
        assert np.array_equal(with_hidden[p], leaves[p])


def test_backward_non_scalar_loss_rejected():
    w = t([1.0, 2.0])
    with ad.Graph():
        out = ad.mul(w, 2.0)
        with pytest.raises(ShapeError):
            ad.backward(out, wrt=[w])


def test_fanout_gradients_accumulate_additively():
    w = t([2.0])
    with ad.Graph():
        a = ad.mul(w, 3.0)
        b = ad.mul(w, 4.0)
        loss = ad.sum_(ad.add(a, b))
        grads = ad.backward(loss, wrt=[w])
    np.testing.assert_allclose(grads[w], [7.0])


def test_straight_through_passes_values_and_reroutes_gradient():
    h = t([1.0, 2.0])
    z = t([10.0, 20.0])
    with ad.Graph():
        out = ad.straight_through(h, z)
        loss = ad.sum_(ad.mul(out, out))
        grads = ad.backward(loss, wrt=[h, z])
    np.testing.assert_allclose(out.data, [10.0, 20.0])
    np.testing.assert_allclose(grads[h], [20.0, 40.0])  # d(sum z^2)/dz routed to h
    np.testing.assert_allclose(grads[z], [0.0, 0.0])


def test_backward_after_graph_exit_raises():
    w = t([1.0, 2.0])
    with ad.Graph():
        loss = ad.sum_(ad.mul(w, w))
    with pytest.raises(RuntimeError, match="Graph exited"):
        ad.backward(loss, wrt=[w])


def test_tape_freed_when_graph_exits():
    w = t(np.ones((3, 3)))
    gc.disable()
    try:
        with ad.Graph() as graph:
            hidden = tanh(matmul(w, w))
            ref = weakref.ref(hidden)
            loss = ad.sum_(hidden)
            del hidden
            grad = ad.backward(loss, wrt=[w])[w]
            # the intermediate was held only by the tape's nodes, released
            # by the sweep (no cyclic GC needed); the slots still count
            assert ref() is None and len(graph) == 3
        assert len(graph) == 0
    finally:
        gc.enable()
    assert grad.shape == (3, 3)


@pytest.mark.parametrize("wrt", [True, False], ids=["wrt", "empty"])
def test_second_backward_on_a_spent_tape_raises(wrt):
    w = t(np.ones((2, 2)))
    with ad.Graph() as graph:
        loss = ad.sum_(tanh(matmul(w, w)))
        ad.backward(loss, wrt=[w] if wrt else [])
        assert len(graph) == 3
        with pytest.raises(RuntimeError, match="swept only once"):
            ad.backward(loss, wrt=[w])


def test_detach_blocks_gradient():
    w = t([3.0])
    with ad.Graph():
        loss = ad.sum_(ad.mul(detach(w), w))
        grads = ad.backward(loss, wrt=[w])
    np.testing.assert_allclose(grads[w], [3.0])


def test_determinism_two_passes_bit_identical():
    rng = np.random.default_rng(11)
    x = t(rng.standard_normal((4, 5)))
    w = t(rng.standard_normal((5, 3)))

    def run():
        with ad.Graph():
            out = ad.gelu(matmul(x, w))
            loss = ad.sum_(ad.mul(out, out))
            grads = ad.backward(loss, wrt=[x, w])
        return loss.data.copy(), grads[x].copy(), grads[w].copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# finite-difference oracles, op by op
# ---------------------------------------------------------------------------

def _fd_case(fn, shapes, seed, tol=1e-6):
    rng = np.random.default_rng(seed)
    inputs = [t(rng.uniform(-1, 1, size=s)) for s in shapes]
    err = check_gradients(fn, inputs)
    assert err < tol, f"relative error {err}"


@pytest.mark.usefixtures("float64")
def test_fd_matmul_rectangular():
    _fd_case(lambda ts: ad.sum_(matmul(ts[0], ts[1])), [(3, 4), (4, 2)], seed=1)


@pytest.mark.usefixtures("float64")
def test_fd_matmul_batched_with_broadcast():
    _fd_case(
        lambda ts: ad.sum_(ad.mul(matmul(ts[0], ts[1]), ts[2])),
        [(2, 3, 4), (4, 5), (2, 3, 5)],
        seed=2,
    )


@pytest.mark.usefixtures("float64")
def test_fd_softmax_jvp():
    x = t([1.0, 2.0, 3.0])
    err = check_gradients(lambda ts: ad.sum_(ad.mul(softmax(ts[0]), ts[1])), [x, t([0.3, -0.2, 0.9], rg=False)])
    assert err < 1e-6


@pytest.mark.usefixtures("float64")
def test_fd_log_softmax():
    _fd_case(lambda ts: ad.sum_(ad.mul(log_softmax(ts[0], axis=-1), ts[1])), [(4, 6), (4, 6)], seed=4)


@pytest.mark.usefixtures("float64")
def test_fd_layer_norm():
    _fd_case(
        lambda ts: ad.sum_(ad.mul(ad.layer_norm(ts[0], ts[1], ts[2]), ts[3])),
        [(2, 4), (4,), (4,), (2, 4)],
        seed=5,
        tol=1e-5,
    )


@pytest.mark.usefixtures("float64")
def test_fd_elementwise_chain():
    _fd_case(
        lambda ts: ad.sum_(tanh(ad.mul(ad.add(ts[0], ts[1]), ad.sub(ts[0], 0.3)))),
        [(3, 3), (3, 3)],
        seed=6,
    )


@pytest.mark.usefixtures("float64")
def test_fd_div_sqrt():
    def fn(ts):
        a = ad.add(ad.mul(ts[0], ts[0]), 2.0)  # strictly positive
        return ad.sum_(ad.add(ad.div(ts[1], a), ad.sqrt(a)))

    _fd_case(fn, [(2, 3), (2, 3)], seed=7)


@pytest.mark.usefixtures("float64")
def test_fd_gelu():
    _fd_case(lambda ts: ad.sum_(ad.gelu(ts[0])), [(4, 4)], seed=8)


@pytest.mark.usefixtures("float64")
def test_fd_reshape_transpose_concat_slice():
    def fn(ts):
        a = transpose(ad.reshape(ts[0], (4, 3)), (1, 0))
        b = ad.concat([a, ts[1]], axis=1)
        c = ad.slice_(b, (slice(None), slice(1, 5)))
        return ad.sum_(ad.mul(c, c))

    _fd_case(fn, [(12,), (3, 4)], seed=9)


@pytest.mark.usefixtures("float64")
def test_fd_take_with_duplicate_rows():
    def fn(ts):
        rows = ad.take(ts[0], np.array([0, 2, 2, 1]))
        return ad.sum_(ad.mul(rows, rows))

    _fd_case(fn, [(3, 5)], seed=10)


@pytest.mark.usefixtures("float64")
def test_fd_pick():
    def fn(ts):
        vals = pick(ts[0], np.array([0, 1, 1]), np.array([2, 0, 0]))
        return ad.sum_(ad.mul(vals, vals))

    _fd_case(fn, [(2, 4)], seed=11)


@pytest.mark.usefixtures("float64")
def test_fd_mean_and_sum_axes():
    def fn(ts):
        return ad.add(
            ad.sum_(mean(ts[0], axis=0)),
            ad.sum_(ad.mul(ad.sum_(ts[0], axis=1, keepdims=True), 0.5)),
        )

    _fd_case(fn, [(3, 4)], seed=12)


@pytest.mark.usefixtures("float64")
def test_fd_conv1d():
    def fn(ts):
        out = ad.conv1d(ts[0], ts[1], ts[2], stride=2, padding=3)
        return ad.sum_(ad.mul(out, out))

    _fd_case(fn, [(2, 2, 11), (3, 2, 5), (3,)], seed=13, tol=1e-5)


@pytest.mark.usefixtures("float64")
def test_fd_conv1d_frozen_input_first_conv_geometry():
    # the encoder's first conv: raw patches in, so no input gradient is formed
    rng = np.random.default_rng(14)
    x = t(rng.uniform(-1, 1, (2, 1, 40)), rg=False)
    w, b = t(rng.uniform(-1, 1, (3, 1, 15))), t(rng.uniform(-1, 1, 3))
    with ad.Graph() as graph:
        out = ad.conv1d(x, w, b, stride=8, padding=7)
        dx, _, _ = graph.nodes[-1].vjp(np.ones_like(out.data))
    assert dx is None

    def fn(ts):
        out = ad.conv1d(x, ts[0], ts[1], stride=8, padding=7)
        return ad.sum_(ad.mul(out, out))

    _fd_case(fn, [(3, 1, 15), (3,)], seed=15, tol=1e-5)


@pytest.mark.parametrize("stride, k, padding", [(1, 3, 1), (8, 15, 7)])
def test_conv1d_input_gradient_matches_per_output_scatter_bitwise(stride, k, padding):
    rng = np.random.default_rng(16)
    x = t(rng.standard_normal((2, 3, 200)))
    w = t(rng.standard_normal((4, 3, k)))
    with ad.Graph() as graph:
        out = ad.conv1d(x, w, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        dx, _ = graph.nodes[-1].vjp(g)
    # reference: scatter each output position's window gradient in turn
    dcols = np.einsum("nol,oik->nilk", g, w.data, optimize=True)
    dxp = np.zeros((2, 3, 200 + 2 * padding))
    for pos in range(out.shape[2]):
        dxp[:, :, pos * stride : pos * stride + k] += dcols[:, :, pos, :]
    assert dx.tobytes() == dxp[:, :, padding : padding + 200].tobytes()


def test_conv1d_output_length_matches_formula():
    x = t(np.zeros((1, 1, 200)), rg=False)
    w = t(np.zeros((16, 1, 15)), rg=False)
    out = ad.conv1d(x, w, stride=8, padding=7)
    assert out.shape == (1, 16, 25)


@pytest.mark.usefixtures("float64")
def test_fd_matmul_gradient_tight_tolerance():
    # gradient of sum(a@b) w.r.t. a, rel err < 1e-6 at h=1e-5
    rng = np.random.default_rng(20)
    a = t(rng.uniform(-1, 1, (3, 4)))
    b = t(rng.uniform(-1, 1, (4, 2)), rg=False)
    err = check_gradients(lambda ts: ad.sum_(matmul(ts[0], b)), [a])
    assert err < 1e-6


def test_relative_error_helper():
    assert relative_error(np.array(1.0), np.array(1.0)) == 0.0
    # zero-gradient entries tolerate finite-difference noise at global scale
    assert relative_error(np.array([1.0, 0.0]), np.array([1.0, 1e-9])) < 1e-8
    assert relative_error(np.array([1.0, 1.0]), np.array([1.0, 1.5])) > 0.3


# ---------------------------------------------------------------------------
# fused primitives: linear and attention
# ---------------------------------------------------------------------------

def _linear_inputs(x_shape, bias, lora, seed):
    rng = np.random.default_rng(seed)
    ts = [t(rng.uniform(-1, 1, x_shape)), t(rng.uniform(-1, 1, (3, x_shape[-1])))]
    if bias:
        ts.append(t(rng.uniform(-1, 1, (3,))))
    if lora:
        ts += [t(rng.uniform(-1, 1, (2, x_shape[-1]))), t(rng.uniform(-1, 1, (3, 2)))]
    return ts


def _linear_fn(bias, lora):
    def fn(ts):
        b = ts[2] if bias else None
        adapter = (ts[-2], ts[-1], 0.7) if lora else None
        out = ad.linear(ts[0], ts[1], b, adapter)
        return ad.sum_(ad.mul(out, out))

    return fn


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("x_shape", [(4, 5), (2, 4, 5)])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("lora", [True, False])
def test_fd_linear(x_shape, bias, lora):
    inputs = _linear_inputs(x_shape, bias, lora, seed=30)
    err = check_gradients(_linear_fn(bias, lora), inputs)
    assert err < 1e-6, f"relative error {err}"


def test_linear_is_one_node_with_the_unfused_chain_numbers():
    x, w, b, a, lb = _linear_inputs((2, 4, 5), True, True, seed=31)

    def unfused(ts):
        x, w, b, a, lb = ts
        y = matmul(x, transpose(w))
        low = matmul(x, transpose(a))
        y = ad.add(y, ad.mul(matmul(low, transpose(lb)), 0.7))
        return ad.sum_(tanh(ad.add(y, b)))

    def fused(ts):
        x, w, b, a, lb = ts
        return ad.sum_(tanh(ad.linear(x, w, b, (a, lb, 0.7))))

    results = []
    for fn in (unfused, fused):
        with ad.Graph() as graph:
            loss = fn([x, w, b, a, lb])
            grads = ad.backward(loss, wrt=[x, w, b, a, lb])
            results.append((len(graph), loss.data, [grads[p] for p in (x, w, b, a, lb)]))
    (n_unfused, l1, g1), (n_fused, l2, g2) = results
    assert (n_unfused, n_fused) == (11, 3)
    assert np.array_equal(l1, l2)
    for ga, gb in zip(g1, g2):
        assert np.array_equal(ga, gb)


def test_linear_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(4, 5\).*\(3, 6\)"):
        ad.linear(t(np.zeros((4, 5))), t(np.zeros((3, 6))))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("tq,tk", [(3, 5), (4, 4)])
def test_fd_attention(causal, tq, tk):
    for n_heads in (1, 2):
        def fn(ts):
            out, _ = attention(ts[0], ts[1], ts[2], n_heads, causal)
            return ad.sum_(ad.mul(out, ts[3]))

        _fd_case(fn, [(tq, 6), (tk, 6), (tk, 6), (tq, 6)], seed=32)


def _split_heads(x, h):
    """The head split as view nodes: (T, E) -> (h, T, E/h)."""
    n, e = x.shape
    return transpose(ad.reshape(x, (n, h, e // h)), (1, 0, 2))


def test_attention_is_one_node_with_the_unfused_chain_numbers():
    rng = np.random.default_rng(33)
    q, k, v = (t(rng.uniform(-1, 1, (n, 8))) for n in (5, 5, 5))
    mask = np.triu(np.full((5, 5), -1e9), k=1)

    def unfused():
        qh, kh, vh = (_split_heads(x, 2) for x in (q, k, v))
        scores = ad.mul(matmul(qh, transpose(kh, (0, 2, 1))), 0.5)
        attn = softmax(ad.add(scores, mask), axis=-1)
        mixed = ad.reshape(transpose(matmul(attn, vh), (1, 0, 2)), (5, 8))
        return mixed, attn.data

    def fused():
        return attention(q, k, v, 2, causal=True)

    results = []
    for fn in (unfused, fused):
        with ad.Graph() as graph:
            out, weights = fn()
            loss = ad.sum_(tanh(out))
            grads = ad.backward(loss, wrt=[q, k, v])
            results.append((len(graph), weights, loss.data, [grads[p] for p in (q, k, v)]))
    (n_unfused, w1, l1, g1), (n_fused, w2, l2, g2) = results
    assert (n_unfused, n_fused) == (16, 3)
    assert np.array_equal(w1, w2) and np.array_equal(l1, l2)
    for ga, gb in zip(g1, g2):
        assert np.array_equal(ga, gb)
    # causal: no query attends to a later key
    assert np.all(np.triu(w2, k=1) == 0.0)


@pytest.mark.usefixtures("float64")
def test_fd_attention_query_subset():
    # causal, fewer queries than keys, positions not contiguous and not sorted
    positions = [4, 1, 3]
    for n_heads in (1, 2):
        def fn(ts):
            out, _ = attention(ts[0], ts[1], ts[2], n_heads, causal=True, positions=positions)
            return ad.sum_(ad.mul(out, ts[3]))

        _fd_case(fn, [(3, 6), (6, 6), (6, 6), (3, 6)], seed=34)


def test_attention_query_subset_equals_those_rows_of_the_full_causal_attention():
    rng = np.random.default_rng(35)
    q, k, v = (t(rng.uniform(-1, 1, (6, 8))) for _ in range(3))
    positions = np.array([5, 0, 2])
    full, w_full = attention(q, k, v, 2, causal=True)
    sub, w_sub = attention(t(q.data[positions]), k, v, 2, causal=True, positions=positions)
    # the same query rows and mask rows; BLAS may order a row subset's sums differently
    np.testing.assert_allclose(w_sub, w_full[:, positions], rtol=0, atol=1e-15)
    np.testing.assert_allclose(sub.data, full.data[positions], rtol=0, atol=1e-15)
    # with every position given, the result is the default causal attention
    _, w_all = attention(q, k, v, 2, causal=True, positions=np.arange(6))
    assert np.array_equal(w_all, w_full)


def test_attention_rejects_positions_outside_the_keys():
    q, kv = t(np.zeros((2, 8))), t(np.zeros((3, 8)))
    for bad in ([0, 3], [-1, 0], [0]):
        with pytest.raises(ShapeError, match="query positions"):
            attention(q, kv, kv, 2, causal=True, positions=bad)


def test_attention_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        attention(t(np.zeros((3, 4))), t(np.zeros((5, 3))), t(np.zeros((5, 3))), 1)


@pytest.mark.parametrize(
    "shapes, n_heads",
    [
        (((2, 3, 4), (2, 5, 4), (2, 5, 4)), 1),  # leading head axes are not an input layout
        (((6,), (5, 6), (5, 6)), 1),
        (((3, 6), (5, 6), (5, 6)), 4),  # 6 features do not split into 4 heads
        (((3, 6), (5, 6), (5, 6)), 0),
    ],
    ids=["3-d", "1-d-query", "indivisible", "no-heads"],
)
def test_attention_needs_token_matrices_that_split_into_the_heads(shapes, n_heads):
    q, k, v = (t(np.zeros(s)) for s in shapes)
    with pytest.raises(ShapeError, match=f"{n_heads} heads"):
        attention(q, k, v, n_heads)


# ---------------------------------------------------------------------------
# fused sub-layers: attention_layer and ffn
# ---------------------------------------------------------------------------

def _affine(rng, dims, lora, bias=True):
    """A (w, b, lora) triple over `dims` = (in, out), lora of rank 2."""
    n_in, n_out = dims
    w = t(rng.uniform(-1, 1, (n_out, n_in)))
    b = t(rng.uniform(-1, 1, n_out)) if bias else None
    adapter = (t(rng.uniform(-1, 1, (2, n_in))), t(rng.uniform(-1, 1, (n_out, 2))), 0.7) if lora else None
    return w, b, adapter


def _affine_tensors(affine):
    w, b, lora = affine
    return [w] + ([] if b is None else [b]) + ([] if lora is None else list(lora[:2]))


def _fused_against_chain(fused, chain, wrt):
    """Run both forms of a sub-layer under the loss sum(tanh(out)): the tape
    length, the weights (or None), the loss and the gradients of `wrt`."""
    results = []
    for fn in (fused, chain):
        with ad.Graph() as graph:
            out, weights = fn()
            loss = ad.sum_(tanh(out))
            grads = ad.backward(loss, wrt=wrt)
            results.append((len(graph), weights, loss.data, [grads[p] for p in wrt]))
    return results


ATTENTION_CASES = {
    # name: (self-attention, adapters, causal positions of the query rows)
    "cross": (False, False, None),
    "self": (True, False, None),
    "self-lora": (True, True, None),
    "cross-lora": (False, True, None),
    "causal-positions": (False, True, [4, 1, 3]),
}


def _attention_case(name, seed=40):
    self_attn, lora, positions = ATTENTION_CASES[name]
    rng = np.random.default_rng(seed)
    kv = t(rng.uniform(-1, 1, (6, 8)))
    query = kv if self_attn else t(rng.uniform(-1, 1, (3 if positions else 4, 8)))
    projs = [_affine(rng, (8, 8), lora) for _ in range(4)]
    return query, kv, projs, positions


def _attention_forms(query, kv, projs, positions):
    wq, wk, wv, wo = projs
    causal = positions is not None

    # the residual makes the query's gradient a sum over several nodes
    def fused():
        out, weights = ad.attention_layer(query, kv, wq, wk, wv, wo, 2, causal, positions)
        return ad.add(out, query), weights

    def chain():
        mixed, weights = attention(
            ad.linear(query, *wq), ad.linear(kv, *wk), ad.linear(kv, *wv), 2, causal, positions
        )
        return ad.add(ad.linear(mixed, *wo), query), weights

    return fused, chain


@pytest.mark.parametrize("name", list(ATTENTION_CASES))
def test_attention_layer_is_one_node_with_the_four_linear_chain_numbers(name):
    query, kv, projs, positions = _attention_case(name)
    fused, chain = _attention_forms(query, kv, projs, positions)
    params = [p for proj in projs for p in _affine_tensors(proj)]
    wrt = list(dict.fromkeys([query, kv])) + params
    (n_fused, w1, l1, g1), (n_chain, w2, l2, g2) = _fused_against_chain(fused, chain, wrt)
    assert (n_fused, n_chain) == (1 + 3, 5 + 3)  # and the residual add, tanh and sum
    assert np.array_equal(w1, w2) and np.array_equal(l1, l2)
    for ga, gb in zip(g1, g2):
        assert np.array_equal(ga, gb)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", list(ATTENTION_CASES))
def test_fd_attention_layer(name):
    query, kv, projs, positions = _attention_case(name, seed=41)
    wq, wk, wv, wo = projs
    # not wk's bias: softmax ignores a shift shared by a query's scores, so
    # its gradient is zero up to rounding (the bit-equality test covers it)
    leaves = list(dict.fromkeys([query, kv])) + [
        p for proj in projs for p in _affine_tensors(proj) if p is not wk[1]
    ]
    weights = t(np.random.default_rng(42).uniform(-1, 1, (query.shape[0], 8)), rg=False)

    def fn(_):
        out, _w = ad.attention_layer(query, kv, wq, wk, wv, wo, 2, positions is not None, positions)
        return ad.sum_(ad.mul(tanh(out), weights))

    err = check_gradients(fn, leaves)
    assert err < 1e-6, f"relative error {err}"


def test_attention_layer_frozen_projections_and_constant_inputs():
    # only the output projection trains: no gradient reaches q, k or v
    rng = np.random.default_rng(43)
    query, kv = t(rng.uniform(-1, 1, (3, 8)), rg=False), t(rng.uniform(-1, 1, (5, 8)), rg=False)
    projs = [_affine(rng, (8, 8), lora=False) for _ in range(4)]
    for proj in projs[:3]:
        for p in _affine_tensors(proj):
            p.requires_grad = False
    fused, chain = _attention_forms(query, kv, projs, None)
    wrt = _affine_tensors(projs[3])
    (n_fused, w1, l1, g1), (n_chain, w2, l2, g2) = _fused_against_chain(fused, chain, wrt)
    assert (n_fused, n_chain) == (4, 4)  # the chain records only wo's linear
    assert np.array_equal(l1, l2)
    for ga, gb in zip(g1, g2):
        assert np.array_equal(ga, gb)
    with ad.Graph():
        assert ad.attention_layer(query, kv, *projs, 2)[0].requires_grad
        for p in _affine_tensors(projs[3]):
            p.requires_grad = False
        assert not ad.attention_layer(query, kv, *projs, 2)[0].requires_grad


def test_multi_head_attention_is_one_node_with_the_four_linear_chain_numbers():
    rng = np.random.default_rng(36)
    attn = MultiHeadAttention(8, 2, rng)
    attn.wv.attach_lora(2, 4.0, rng)
    attn.wv.lora_b.data[...] = rng.uniform(-1, 1, attn.wv.lora_b.shape)
    query, key_value = t(rng.uniform(-1, 1, (3, 8))), t(rng.uniform(-1, 1, (5, 8)))
    wrt = [query, key_value, *attn.named_parameters().values()]

    def fused():
        out, weights = attn(query, key_value)
        return out, weights.mean(axis=0)

    def chain():
        mixed, weights = attention(attn.wq(query), attn.wk(key_value), attn.wv(key_value), 2)
        return attn.wo(mixed), weights.mean(axis=0)

    with ad.Graph() as graph:
        attn(query, key_value)
        ops = [node.vjp.__qualname__.split(".")[0] for node in graph.nodes]
    assert ops == ["attention_layer"]
    (n_fused, w1, l1, g1), (n_chain, w2, l2, g2) = _fused_against_chain(fused, chain, wrt)
    assert (n_fused, n_chain) == (3, 7)
    assert np.array_equal(w1, w2) and np.array_equal(l1, l2)
    for ga, gb in zip(g1, g2):
        assert np.array_equal(ga, gb)


@pytest.mark.parametrize("lora", [False, True])
@pytest.mark.parametrize("frozen_first", [False, True])
def test_ffn_is_one_node_with_the_linear_gelu_linear_chain_numbers(lora, frozen_first):
    rng = np.random.default_rng(44)
    x = t(rng.uniform(-2, 2, (2, 5, 6)), rg=not frozen_first)
    fc1, fc2 = _affine(rng, (6, 12), lora), _affine(rng, (12, 6), lora)
    if frozen_first:  # nothing before the gelu trains: the chain stops at fc2
        for p in _affine_tensors(fc1):
            p.requires_grad = False
    wrt = [x] + _affine_tensors(fc1) + _affine_tensors(fc2)

    def fused():
        return ad.ffn(x, fc1, fc2), None

    def chain():
        return ad.linear(ad.gelu(ad.linear(x, *fc1)), *fc2), None

    (n_fused, _, l1, g1), (n_chain, _, l2, g2) = _fused_against_chain(fused, chain, wrt)
    assert (n_fused, n_chain) == (3, 2 + (1 if frozen_first else 3))
    assert np.array_equal(l1, l2)
    for ga, gb in zip(g1, g2):
        assert np.array_equal(ga, gb)


@pytest.mark.parametrize("shape", GELU_SHAPES)
def test_ffn_forward_matches_the_scipy_erf_chain_to_the_bit(shape):
    # fc1 is the identity, so the gelu reads N(0, 9) values of `shape`
    rng = np.random.default_rng(48)
    x = t(rng.normal(0.0, 3.0, shape))
    n = shape[-1]
    fc1, fc2 = (t(np.eye(n)), None, None), _affine(rng, (n, n), False)
    expected = ad.linear(t(gelu(ad.linear(x, *fc1).data)), *fc2)
    assert ad.ffn(x, fc1, fc2).data.tobytes() == expected.data.tobytes()


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("lora", [False, True])
def test_fd_ffn(lora):
    rng = np.random.default_rng(45)
    x = t(rng.uniform(-2, 2, (4, 6)))
    fc1, fc2 = _affine(rng, (6, 10), lora), _affine(rng, (10, 6), lora, bias=False)
    err = check_gradients(lambda _: ad.sum_(tanh(ad.ffn(x, fc1, fc2))), [x] + _affine_tensors(fc1) + _affine_tensors(fc2))
    assert err < 1e-6, f"relative error {err}"


def test_fused_sub_layers_refuse_non_finite_intermediates():
    rng = np.random.default_rng(46)
    x = t(np.full((3, 4), 1e3))
    fc1, fc2 = _affine(rng, (4, 4), False), _affine(rng, (4, 4), False)
    fc1[0].data[0, 0] = np.finfo(fc1[0].data.dtype).max  # finite; the first product overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            ad.ffn(x, fc1, fc2)
        with pytest.raises(NumericError):
            ad.attention_layer(x, x, fc1, fc2, fc2, fc2, 2)


# ---------------------------------------------------------------------------
# conv1d as im2col matrix products
# ---------------------------------------------------------------------------

def _conv1d_einsum(x, w, b, stride, padding, g):
    """The einsum form of conv1d: output, and the gradients of x, w and b
    for the output gradient g (the input's scattered per output position)."""
    n, cin, length = x.shape
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride, :]
    out = np.einsum("nilk,oik->nol", win, w, optimize=True) + b[:, None]
    dw = np.einsum("nol,nilk->oik", g, win, optimize=True)
    dcols = np.einsum("nol,oik->nilk", g, w, optimize=True)
    dxp = np.zeros_like(xp)
    for j in range(k - 1, -1, -1):
        dxp[:, :, j : j + stride * (out.shape[2] - 1) + 1 : stride] += dcols[..., j]
    return out, dxp[:, :, padding : padding + length], dw, g.sum(axis=(0, 2))


CONV_GEOMETRIES = [
    # (n, cin, length, cout, k, stride, padding): the encoder's three convs
    # at patch lengths 200 and 40 over 1 to 76 channel-patches, and the
    # geometries of the tests above
    *[(n, 1, length, 16, 15, 8, 7) for n in (1, 2, 8, 38, 76) for length in (200, 40)],
    *[(n, 16, length, 16, 3, 1, 1) for n in (1, 2, 8, 38, 76) for length in (25, 5)],
    (2, 2, 11, 3, 5, 2, 3),
    (2, 3, 200, 4, 3, 1, 1),
    (2, 3, 200, 4, 15, 8, 7),
]


@pytest.mark.parametrize("n, cin, length, cout, k, stride, padding", CONV_GEOMETRIES)
def test_conv1d_matmul_form_equals_the_einsum_form_bitwise(n, cin, length, cout, k, stride, padding):
    rng = np.random.default_rng(47)
    x = t(rng.standard_normal((n, cin, length)))
    w, b = t(rng.standard_normal((cout, cin, k))), t(rng.standard_normal(cout))
    with ad.Graph() as graph:
        out = ad.conv1d(x, w, b, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(out.data.dtype)  # the gradient at the op's dtype
        grads = graph.nodes[-1].vjp(g)
        assert len(graph) == 1
    ref = _conv1d_einsum(x.data, w.data, b.data, stride, padding, g)
    assert np.array_equal(out.data, ref[0])
    for got, want in zip(grads, ref[1:]):
        assert np.array_equal(got, want)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("n, cin, length, cout, k, stride, padding", [
    (5, 3, 4, 1, 2, 3, 0),  # one output channel, one output position
    (3, 5, 4, 3, 4, 3, 1),  # one output position
    (1, 4, 10, 1, 1, 2, 1),  # one channel-patch, output channel and tap
    (5, 1, 8, 3, 3, 1, 2),  # one input channel at stride 1
])
def test_conv1d_off_blas_einsum_geometries_differ_by_a_few_units_in_the_last_place(
    n, cin, length, cout, k, stride, padding
):
    # einsum runs its own loop instead of BLAS for these, so the sums run in
    # another order; over 1000 draws each the largest difference was 4.4
    # units in the last place of the largest value
    rng = np.random.default_rng(47)
    x = t(rng.standard_normal((n, cin, length)))
    w, b = t(rng.standard_normal((cout, cin, k))), t(rng.standard_normal(cout))
    with ad.Graph() as graph:
        out = ad.conv1d(x, w, b, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        grads = graph.nodes[-1].vjp(g)
    ref = _conv1d_einsum(x.data, w.data, b.data, stride, padding, g)
    for got, want in zip((out.data, *grads), ref):
        np.testing.assert_allclose(got, want, rtol=0, atol=8 * np.finfo(float).eps * np.abs(want).max())


# ---------------------------------------------------------------------------
# mix: a constant matrix along the leading axis
# ---------------------------------------------------------------------------

def _hierarchy_matrices():
    for name in ("synthetic-1", "synthetic-4", "synthetic-7", "builtin-1020"):
        hier = build_hierarchy(get_montage(name))
        for level in range(1, 6):
            yield f"{name}-mean-{level}", hier.mean_matrix(level)
            yield f"{name}-member-{level}", hier.member_matrix(level)


HIERARCHY_MATRICES = dict(_hierarchy_matrices())


@pytest.mark.parametrize("name", list(HIERARCHY_MATRICES))
def test_mix_is_one_node_with_the_reshape_matmul_reshape_numbers(name):
    mat = HIERARCHY_MATRICES[name]
    x = t(np.random.default_rng(48).standard_normal((mat.shape[1], 3, 8)))

    def chain():
        flat = ad.reshape(x, (mat.shape[1], 3 * 8))
        return ad.reshape(matmul(ad.Tensor(mat), flat), (mat.shape[0], 3, 8)), None

    results = _fused_against_chain(lambda: (ad.mix(mat, x), None), chain, [x])
    (n_fused, _, l1, g1), (n_chain, _, l2, g2) = results
    assert (n_fused, n_chain) == (3, 5)
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1[0], g2[0])


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("x_shape", [(4, 3), (4, 2, 3)])
def test_fd_mix(x_shape):
    mat = np.random.default_rng(49).uniform(-1, 1, (3, 4))
    _fd_case(lambda ts: ad.sum_(tanh(ad.mix(mat, ts[0]))), [x_shape], seed=50)


def test_mix_refuses_a_leading_axis_other_than_the_matrix_width():
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
        ad.mix(np.ones((3, 4)), t(np.zeros((5, 2))))
