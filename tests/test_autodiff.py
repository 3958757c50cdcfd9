"""Tensor/tape core: op semantics, gradient oracles, determinism."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from eeglm import autodiff as ad
from eeglm.errors import NumericError, ShapeError
from eeglm.gradcheck import check_gradients, relative_error


def t(data, rg=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = t(np.eye(2), rg=False)
    b = t([[1.0, 2.0], [3.0, 4.0]], rg=False)
    np.testing.assert_allclose(ad.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_projector():
    p = t([[1.0, 0.0], [0.0, 0.0]], rg=False)
    v = t([[5.0], [7.0]], rg=False)
    np.testing.assert_allclose(ad.matmul(p, v).data, [[5.0], [0.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_softmax_uniform():
    out = ad.softmax(t([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0))


def test_softmax_stability_no_overflow():
    out = ad.softmax(t([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_rows_sum_to_one_and_bounded():
    rng = np.random.default_rng(3)
    x = t(rng.uniform(-5, 5, size=(6, 9)))
    y = ad.softmax(x, axis=-1).data
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
    with np.errstate(over="ignore"):
        x = ad.Tensor([1e308, 1e308])
        y = ad.mul(x, 1.0)
    np.testing.assert_array_equal(y.data, [1e308, 1e308])


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
        grads = ad.backward(loss)
    np.testing.assert_allclose(grads[w], np.ones(3))


def test_backward_dead_branch_gives_zeros():
    w = t([1.0, 2.0, 3.0])
    with ad.Graph():
        loss = ad.sum_(ad.mul(w, 0.0))
        grads = ad.backward(loss)
    np.testing.assert_allclose(grads[w], np.zeros(3))


def test_backward_unreached_leaf_defined_as_zero():
    w = t([1.0, 2.0])
    other = t([5.0])
    with ad.Graph():
        loss = ad.sum_(w)
        grads = ad.backward(loss, wrt=[w, other])
    np.testing.assert_allclose(grads[other], np.zeros(1))


def test_backward_non_scalar_loss_rejected():
    w = t([1.0, 2.0])
    with ad.Graph():
        out = ad.mul(w, 2.0)
        with pytest.raises(ShapeError):
            ad.backward(out)


def test_fanout_gradients_accumulate_additively():
    w = t([2.0])
    with ad.Graph():
        a = ad.mul(w, 3.0)
        b = ad.mul(w, 4.0)
        loss = ad.sum_(ad.add(a, b))
        grads = ad.backward(loss)
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
            hidden = ad.tanh(ad.matmul(w, w))
            ref = weakref.ref(hidden)
            loss = ad.sum_(hidden)
            del hidden
            grad = ad.backward(loss, wrt=[w])[w]
            assert len(graph) == 3 and ref() is not None
        # the intermediate was held only by the tape; no cyclic GC needed
        assert ref() is None and len(graph) == 0
    finally:
        gc.enable()
    assert grad.shape == (3, 3)


def test_detach_blocks_gradient():
    w = t([3.0])
    with ad.Graph():
        loss = ad.sum_(ad.mul(ad.detach(w), w))
        grads = ad.backward(loss, wrt=[w])
    np.testing.assert_allclose(grads[w], [3.0])


def test_determinism_two_passes_bit_identical():
    rng = np.random.default_rng(11)
    x = t(rng.standard_normal((4, 5)))
    w = t(rng.standard_normal((5, 3)))

    def run():
        with ad.Graph():
            out = ad.gelu(ad.matmul(x, w))
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


def test_fd_matmul_rectangular():
    _fd_case(lambda ts: ad.sum_(ad.matmul(ts[0], ts[1])), [(3, 4), (4, 2)], seed=1)


def test_fd_matmul_batched_with_broadcast():
    _fd_case(
        lambda ts: ad.sum_(ad.mul(ad.matmul(ts[0], ts[1]), ts[2])),
        [(2, 3, 4), (4, 5), (2, 3, 5)],
        seed=2,
    )


def test_fd_softmax_jvp():
    x = t([1.0, 2.0, 3.0])
    err = check_gradients(lambda ts: ad.sum_(ad.mul(ad.softmax(ts[0]), ts[1])), [x, t([0.3, -0.2, 0.9], rg=False)])
    assert err < 1e-6


def test_fd_log_softmax():
    _fd_case(lambda ts: ad.sum_(ad.mul(ad.log_softmax(ts[0], axis=-1), ts[1])), [(4, 6), (4, 6)], seed=4)


def test_fd_layer_norm():
    _fd_case(
        lambda ts: ad.sum_(ad.mul(ad.layer_norm(ts[0], ts[1], ts[2]), ts[3])),
        [(2, 4), (4,), (4,), (2, 4)],
        seed=5,
        tol=1e-5,
    )


def test_fd_elementwise_chain():
    _fd_case(
        lambda ts: ad.sum_(ad.tanh(ad.mul(ad.add(ts[0], ts[1]), ad.sub(ts[0], 0.3)))),
        [(3, 3), (3, 3)],
        seed=6,
    )


def test_fd_div_exp_log_sqrt_power():
    def fn(ts):
        a = ad.add(ad.mul(ts[0], ts[0]), 2.0)  # strictly positive
        return ad.sum_(
            ad.add(
                ad.div(ts[1], a),
                ad.add(ad.log(a), ad.add(ad.sqrt(a), ad.add(ad.exp(ts[1]), ad.power(a, 1.7)))),
            )
        )

    _fd_case(fn, [(2, 3), (2, 3)], seed=7)


def test_fd_gelu():
    _fd_case(lambda ts: ad.sum_(ad.gelu(ts[0])), [(4, 4)], seed=8)


def test_fd_reshape_transpose_concat_slice():
    def fn(ts):
        a = ad.transpose(ad.reshape(ts[0], (4, 3)), (1, 0))
        b = ad.concat([a, ts[1]], axis=1)
        return ad.sum_(ad.mul(b[:, 1:5], b[:, 1:5]))

    _fd_case(fn, [(12,), (3, 4)], seed=9)


def test_fd_take_with_duplicate_rows():
    def fn(ts):
        rows = ad.take(ts[0], np.array([0, 2, 2, 1]))
        return ad.sum_(ad.mul(rows, rows))

    _fd_case(fn, [(3, 5)], seed=10)


def test_fd_pick():
    def fn(ts):
        vals = ad.pick(ts[0], np.array([0, 1, 1]), np.array([2, 0, 0]))
        return ad.sum_(ad.mul(vals, vals))

    _fd_case(fn, [(2, 4)], seed=11)


def test_fd_mean_and_sum_axes():
    def fn(ts):
        return ad.add(
            ad.sum_(ad.mean(ts[0], axis=0)),
            ad.sum_(ad.mul(ad.sum_(ts[0], axis=1, keepdims=True), 0.5)),
        )

    _fd_case(fn, [(3, 4)], seed=12)


def test_fd_conv1d():
    def fn(ts):
        out = ad.conv1d(ts[0], ts[1], ts[2], stride=2, padding=3)
        return ad.sum_(ad.mul(out, out))

    _fd_case(fn, [(2, 2, 11), (3, 2, 5), (3,)], seed=13, tol=1e-5)


def test_conv1d_output_length_matches_formula():
    x = t(np.zeros((1, 1, 200)), rg=False)
    w = t(np.zeros((16, 1, 15)), rg=False)
    out = ad.conv1d(x, w, stride=8, padding=7)
    assert out.shape == (1, 16, 25)


def test_fd_matmul_gradient_tight_tolerance():
    # gradient of sum(a@b) w.r.t. a, rel err < 1e-6 at h=1e-5
    rng = np.random.default_rng(20)
    a = t(rng.uniform(-1, 1, (3, 4)))
    b = t(rng.uniform(-1, 1, (4, 2)), rg=False)
    err = check_gradients(lambda ts: ad.sum_(ad.matmul(ts[0], b)), [a])
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
        y = ad.matmul(x, ad.transpose(w))
        low = ad.matmul(x, ad.transpose(a))
        y = ad.add(y, ad.mul(ad.matmul(low, ad.transpose(lb)), 0.7))
        return ad.sum_(ad.tanh(ad.add(y, b)))

    def fused(ts):
        x, w, b, a, lb = ts
        return ad.sum_(ad.tanh(ad.linear(x, w, b, (a, lb, 0.7))))

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


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("tq,tk", [(3, 5), (4, 4)])
def test_fd_attention(causal, tq, tk):
    def fn(ts):
        out, _ = ad.attention(ts[0], ts[1], ts[2], 0.5, causal)
        return ad.sum_(ad.mul(out, ts[3]))

    _fd_case(fn, [(2, tq, 3), (2, tk, 3), (2, tk, 3), (2, tq, 3)], seed=32)


def test_attention_is_one_node_with_the_unfused_chain_numbers():
    rng = np.random.default_rng(33)
    q, k, v = (t(rng.uniform(-1, 1, (2, n, 4))) for n in (5, 5, 5))
    mask = np.triu(np.full((5, 5), -1e9), k=1)

    def unfused():
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 0.5)
        attn = ad.softmax(ad.add(scores, mask), axis=-1)
        return ad.matmul(attn, v), attn.data

    def fused():
        return ad.attention(q, k, v, 0.5, causal=True)

    results = []
    for fn in (unfused, fused):
        with ad.Graph() as graph:
            out, weights = fn()
            loss = ad.sum_(ad.tanh(out))
            grads = ad.backward(loss, wrt=[q, k, v])
            results.append((len(graph), weights, loss.data, [grads[p] for p in (q, k, v)]))
    (n_unfused, w1, l1, g1), (n_fused, w2, l2, g2) = results
    assert (n_unfused, n_fused) == (8, 3)
    assert np.array_equal(w1, w2) and np.array_equal(l1, l2)
    for ga, gb in zip(g1, g2):
        assert np.array_equal(ga, gb)
    # causal: no query attends to a later key
    assert np.all(np.triu(w2, k=1) < 1e-300)


def test_attention_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        ad.attention(t(np.zeros((2, 3, 4))), t(np.zeros((2, 5, 3))), t(np.zeros((2, 5, 3))), 1.0)
