"""AdamW update rules, clipping, and the cosine schedule."""

from __future__ import annotations

import re

import numpy as np
import pytest

from eeglm import autodiff as ad
from eeglm.autodiff import Graph, Tensor, backward, mul, sub, sum_
from eeglm.checkpoint import assign_parameters
from eeglm.errors import DataError
from eeglm.nn import Linear
from eeglm.optim import AdamW, clip_global_norm, cosine_schedule
from eeglm.quantizer import QuantizerConfig, VectorQuantizer
from gradcheck import check_directional

HYPER = dict(betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)


def test_zero_grad_no_decay_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    AdamW({"p": p}, **HYPER).step({"p": np.zeros(3)}, lr=0.5)
    np.testing.assert_allclose(p.data, [1.0, -2.0, 3.0])


def test_decoupled_decay_shrinks_by_factor():
    p = Tensor(np.array([2.0, -4.0]), requires_grad=True)
    AdamW({"p": p}, **dict(HYPER, weight_decay=0.1)).step({"p": np.zeros(2)}, lr=1.0)
    np.testing.assert_allclose(p.data, [2.0 * 0.9, -4.0 * 0.9])


def test_quadratic_convergence():
    x = Tensor(np.array([0.0]), requires_grad=True)
    opt = AdamW({"x": x}, **HYPER)
    for _ in range(200):
        with Graph():
            diff = sub(x, 3.0)
            loss = sum_(mul(diff, diff))
            grads = backward(loss, wrt=[x])
        opt.step({"x": grads[x]}, lr=0.1)
    assert abs(float(x.data[0]) - 3.0) < 0.01


def test_bias_correction_first_step_size():
    # with bias correction the very first step has magnitude ~lr regardless of betas
    p = Tensor(np.array([0.0]), requires_grad=True)
    AdamW({"p": p}, **HYPER).step({"p": np.array([0.5])}, lr=0.01)
    assert abs(abs(float(p.data[0])) - 0.01) < 1e-6


def test_lr_scales_apply_per_parameter():
    a = Tensor(np.array([0.0]), requires_grad=True)
    b = Tensor(np.array([0.0]), requires_grad=True)
    grads = {"a": np.array([1.0]), "b": np.array([1.0])}
    AdamW({"a": a, "b": b}, **HYPER, lr_scales={"b": 0.1}).step(grads, lr=0.1)
    assert abs(float(a.data[0])) > abs(float(b.data[0])) * 5


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_global_norm(grads, 1.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert abs(total - 1.0) < 1e-12
    # below the threshold nothing changes
    same = clip_global_norm({"a": np.array([0.1])}, 1.0)
    np.testing.assert_allclose(same["a"], [0.1])


def test_cosine_schedule_shape():
    base, total, warm = 1.0, 100, 10
    lrs = [cosine_schedule(s, total, base, warm, min_lr=0.1) for s in range(total)]
    assert lrs[warm - 1] == base               # warmup reaches base
    assert all(a <= b + 1e-12 for a, b in zip(lrs[: warm - 1], lrs[1:warm]))
    assert all(a >= b - 1e-12 for a, b in zip(lrs[warm:-1], lrs[warm + 1 :]))
    assert abs(lrs[-1] - 0.1) < 0.02           # decays towards min_lr


def test_cosine_schedule_hand_worked_decay():
    # 10 warmup steps, then a cosine over the remaining 90: step 10 is the
    # first decay step (cos 0 = 1), step 55 its midpoint (cos(pi/2) = 0)
    base, min_lr = 1.0, 0.1
    first = cosine_schedule(10, 100, base, 10, min_lr=min_lr)
    middle = cosine_schedule(55, 100, base, 10, min_lr=min_lr)
    assert first == pytest.approx(base, abs=1e-15)               # 0.1 + 0.5 * 0.9 * 2
    assert middle == pytest.approx((base + min_lr) / 2, abs=1e-15)  # 0.1 + 0.5 * 0.9 * 1


def test_optimizer_state_roundtrip():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, **HYPER)
    opt.step({"p": np.array([0.3])}, lr=0.1)
    snap = {k: v.copy() for k, v in opt.state_arrays().items()}
    opt2 = AdamW({"p": p}, **HYPER)
    opt2.load_state({"step": opt.t, "trainable": ["p"]}, snap)
    assert opt2.t == 1
    np.testing.assert_allclose(opt2.state_arrays()["opt.m"], opt.state_arrays()["opt.m"])



def _reference_adamw(params, grads, state, lr, betas, eps, weight_decay, lr_scales):
    """The per-tensor AdamW update, one tensor at a time."""
    b1, b2 = betas
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        g = grads.get(name, np.zeros_like(p))
        m = b1 * state["m"].get(name, np.zeros_like(p)) + (1.0 - b1) * g
        v = b2 * state["v"].get(name, np.zeros_like(p)) + (1.0 - b2) * (g * g)
        state["m"][name], state["v"][name] = m, v
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        step_lr = lr * lr_scales.get(name, 1.0)
        params[name] = p - step_lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)


def test_flat_update_matches_per_tensor_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (4,), "scaled": (2, 5), "idle": (3,), "t": (3, 6)}
    # the reference computes at the parameters' dtype
    init = {n: rng.standard_normal(s).astype(ad.DTYPE) for n, s in shapes.items()}
    tensors = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
    third = 1.0 / 3.0  # a scale whose product with lr rounds unlike two products
    scales = {"b": third, "scaled": third, "t": third}
    hyper = dict(betas=(0.9, 0.98), eps=1e-8, weight_decay=0.01, lr_scales=scales)
    opt = AdamW(tensors, **hyper)
    # neighbours of equal scale share one run; "t", past "idle", has its own
    assert opt.lr_runs == [(0, 12, 1.0), (12, 26, third), (26, 29, 1.0), (29, 47, third)]
    ref = dict(init)
    state = {"t": 0, "m": {}, "v": {}}
    for lr in rng.uniform(1e-4, 1.0, 50).tolist():
        grads = {n: rng.standard_normal(s).astype(ad.DTYPE) for n, s in shapes.items() if n != "idle"}
        grads["t"] = rng.standard_normal((6, 3)).astype(ad.DTYPE).T  # a non-contiguous gradient
        opt.step(grads, lr=lr)
        _reference_adamw(ref, grads, state, lr, **hyper)
    for name in shapes:
        np.testing.assert_array_equal(tensors[name].data, ref[name])
    # each moment buffer is the per-tensor moments, flattened in parameter order
    moments = opt.state_arrays()
    for key in ("m", "v"):
        flat = np.concatenate([state[key][name] for name in shapes], axis=None)
        np.testing.assert_array_equal(moments[f"opt.{key}"], flat)
    assert not np.array_equal(tensors["idle"].data, init["idle"])  # decay moves it


def _per_name_layout(meta, state):
    """The layout checkpoints had before the moments were stored flat: one
    `opt.m/<name>` and one `opt.v/<name>` entry per trainable parameter, and
    no trainable names in the metadata."""
    for key in ("opt.m", "opt.v"):
        flat = state.pop(key)
        state.update({f"{key}/a": flat[:6].reshape(3, 2), f"{key}/b": flat[6:]})
    del meta["trainable"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta, state: state.pop("opt.v"), "'opt.v': expected shape (10,), got nothing"),
        (lambda meta, state: state.update({"opt.m": np.full(1, 0.5)}),
         "'opt.m': expected shape (10,), got (1,)"),
        (lambda meta, state: meta.update(trainable=["a", "c"]),
         "saved for another trainable set than the 2 parameters trained here"),
        (lambda meta, state: meta.update(trainable=["b", "a"]),
         "saved for another trainable set than the 2 parameters trained here"),
        (_per_name_layout, "'opt.m': expected shape (10,), got nothing"),
    ],
    ids=["missing", "broadcastable-shape", "foreign-parameter", "trainable-name-mismatch",
         "per-name-layout"],
)
def test_load_state_refuses_moments_of_another_trainable_set(edit, message):
    params = {n: Tensor(np.ones(s), requires_grad=True) for n, s in (("a", (3, 2)), ("b", (4,)))}
    opt = AdamW(params, **HYPER)
    meta = {"step": 3, "trainable": ["a", "b"]}
    state = {k: v.copy() for k, v in opt.state_arrays().items()}
    edit(meta, state)
    fresh = AdamW(params, **HYPER)
    with pytest.raises(DataError, match=re.escape(message)):
        fresh.load_state(meta, state)
    assert fresh.t == 0 and not fresh.m.any() and not fresh.v.any()


def test_state_arrays_resume_gives_the_same_next_step():
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 2), "b": (4,)}
    first = {n: Tensor(rng.standard_normal(s), requires_grad=True) for n, s in shapes.items()}
    hyper = dict(HYPER, weight_decay=0.1, lr_scales={"b": 2.0})
    opt = AdamW(first, **hyper)
    for _ in range(2):
        opt.step({n: rng.standard_normal(s) for n, s in shapes.items()}, lr=0.05)
    assert list(opt.state_arrays()) == ["opt.m", "opt.v"]
    saved = {k: v.copy() for k, v in opt.state_arrays().items()}
    second = {n: Tensor(t.data.copy(), requires_grad=True) for n, t in first.items()}
    fresh = AdamW(second, **hyper)
    fresh.load_state({"step": opt.t, "trainable": list(shapes)}, saved)
    grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
    opt.step(grads, lr=0.05)
    fresh.step(grads, lr=0.05)
    np.testing.assert_array_equal(fresh.flat, opt.flat)
    np.testing.assert_array_equal(fresh.m, opt.m)
    np.testing.assert_array_equal(fresh.v, opt.v)


def test_parameters_written_in_place_stay_in_the_buffer():
    rng = np.random.default_rng(0)
    cfg = QuantizerConfig(num_codes=4, code_dim=3, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, 5, rng)
    lin = Linear(3, 2, rng)
    lin.attach_lora(1, 1.0, rng)
    lin.lora_b.data[...] = 1.0
    params = {"codebook": quant.codebook, "w": lin.w, "b": lin.b}
    opt = AdamW(params, **HYPER)
    quant.warm_start(rng.standard_normal((20, 3)), rng)
    before_assign = {n: t.data.copy() for n, t in params.items()}
    assign_parameters(params, {n: a + 1.0 for n, a in before_assign.items()})
    w_before = lin.w.data.copy()
    lin.merge_lora()
    assert not np.array_equal(lin.w.data, w_before)
    for t in params.values():
        assert np.shares_memory(t.data, opt.flat)
    before = {n: t.data.copy() for n, t in params.items()}
    opt.step({n: np.ones_like(t.data) for n, t in params.items()}, lr=0.1)
    for name, t in params.items():
        assert np.all(t.data != before[name])


@pytest.mark.usefixtures("float64")
def test_directional_check_leaves_parameters_in_the_buffer():
    rng = np.random.default_rng(1)
    p = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    opt = AdamW({"p": p}, **HYPER)
    before = p.data.copy()
    err = check_directional(lambda ts: sum_(mul(ts[0], ts[0])), [p], rng)
    assert err < 1e-6
    assert np.shares_memory(p.data, opt.flat)
    np.testing.assert_array_equal(p.data, before)
    opt.step({"p": np.ones_like(p.data)}, lr=0.1)
    assert np.all(p.data != before)
