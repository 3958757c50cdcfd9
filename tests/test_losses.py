"""The fused span and reconstruction losses against their unfused chains in
`oracles`, to the bit, and against finite differences."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from eeglm import autodiff as ad
from eeglm.autodiff import Graph, Tensor, backward
from eeglm.errors import ShapeError
from eeglm.losses import loss_dsha, span_nll
from eeglm.sequences import VocabSpec, assemble_sequence
from gradcheck import check_gradients

VOCAB = VocabSpec(v_text=40, n_codes=12)
UPSTREAM = (1.0, 0.0, -2.5)  # 0.0 sends signed zeros through the vjps


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def values_and_grads(loss_fn, args, upstream):
    """The loss and the gradient of upstream * loss for each tensor in args."""
    tensors = [a for a in args if isinstance(a, Tensor)]
    with Graph() as graph:
        loss = loss_fn(*args)
        nodes = len(graph)
        grads = backward(ad.mul(loss, upstream), wrt=tensors)
    return loss.data, [grads[t] for t in tensors], nodes


def assert_matches_the_chain(fused, chain, args, upstream, nodes=1):
    value, grads, fused_nodes = values_and_grads(fused, args, upstream)
    ref_value, ref_grads, _ = values_and_grads(chain, args, upstream)
    assert fused_nodes == nodes
    assert same_bits(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert same_bits(g, ref)
    return grads


def demo_sequence(rng):
    return assemble_sequence(
        rng.integers(0, VOCAB.v_text, size=6), 2, rng.integers(0, VOCAB.n_codes, size=5), VOCAB,
        instruction_ids=rng.integers(0, VOCAB.v_text, size=3), answer_ids=[7, 9],
    )


def sliced_span_nll(logits, seq, span: str) -> Tensor:
    """`span_nll` over logits of every position of `seq`: the rows the span
    reads are sliced out first, as `loss_ntp` slices the backbone's rows."""
    s, e = seq.spans[span]
    return span_nll(ad.slice_(logits, slice(s - 1, e - 1)), seq, span)


def span_logits(rng, seq, span, full: bool) -> Tensor:
    """Logits of every position of seq, or only of the rows `span` reads."""
    s, e = seq.spans[span]
    rows = seq.length if full else e - s
    return Tensor(3.0 * rng.standard_normal((rows, VOCAB.v_total)), requires_grad=True)


# ---------------------------------------------------------------------------
# span_nll
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("upstream", UPSTREAM)
@pytest.mark.parametrize("full", [False, True], ids=["span-rows", "all-rows"])
@pytest.mark.parametrize("span", ["text", "eeg", "answer"])
def test_span_nll_matches_the_chain_to_the_bit(span, full, upstream):
    rng = np.random.default_rng(1)
    seq = demo_sequence(rng)
    logits = span_logits(rng, seq, span, full)
    fused = sliced_span_nll if full else span_nll
    (grad,) = assert_matches_the_chain(
        fused, oracles.span_nll, (logits, seq, span), upstream, nodes=1 + full
    )
    s, e = seq.spans[span]
    read = np.zeros(len(grad), dtype=bool)
    read[slice(s - 1, e - 1) if full else slice(None)] = True
    assert np.all(grad[~read] == 0.0) and not np.signbit(grad[~read]).any()
    assert (np.abs(grad[read]).max() > 0) == (upstream != 0.0)


@pytest.mark.parametrize("upstream", UPSTREAM)
def test_span_nll_rows_that_underflow_or_peak_at_the_target(upstream):
    rng = np.random.default_rng(2)
    seq = demo_sequence(rng)
    logits = span_logits(rng, seq, "text", full=False)
    targets = seq.ids[slice(*seq.spans["text"])]
    logits.data[0, (targets[0] + 1) % VOCAB.v_total] = 900.0  # the rest of row 0 underflows
    logits.data[1, targets[1]] = logits.data[1].max() + 4.0  # the target is row 1's max
    logits.data[2, targets[2]] = 900.0  # both at once: the target holds all the mass
    grad, = assert_matches_the_chain(span_nll, oracles.span_nll, (logits, seq, "text"), upstream)
    assert np.all(np.isfinite(grad))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("full", [False, True], ids=["span-rows", "all-rows"])
def test_fd_span_nll(full):
    rng = np.random.default_rng(3)
    seq = demo_sequence(rng)
    logits = span_logits(rng, seq, "eeg", full)
    fused = sliced_span_nll if full else span_nll
    assert check_gradients(lambda ts: fused(ts[0], seq, "eeg"), [logits]) < 1e-6


def test_span_nll_refuses_logits_of_every_position():
    rng = np.random.default_rng(4)
    seq = demo_sequence(rng)
    n = seq.spans["eeg"][1] - seq.spans["eeg"][0]
    logits = span_logits(rng, seq, "eeg", full=True)
    with pytest.raises(ShapeError, match=f"eeg span of {n} tokens needs {n} logit rows, got {seq.length}"):
        span_nll(logits, seq, "eeg")


# ---------------------------------------------------------------------------
# loss_dsha
# ---------------------------------------------------------------------------


def dsha_args(rng, every_grad: bool):
    """(x, x_hat, x_fre, x_fre_hat, h, z_q, beta): the targets x and x_fre
    as arrays, or every one of the six as a tensor that wants gradients."""
    shapes = ((6, 8), (6, 8), (6, 5), (6, 5), (6, 4), (6, 4))
    args = [rng.standard_normal(s) for s in shapes]
    args = [Tensor(a, requires_grad=every_grad or i % 2 == 1 or i >= 4) for i, a in enumerate(args)]
    if not every_grad:
        args[0], args[2] = args[0].data, args[2].data
    return (*args, 0.25)


@pytest.mark.parametrize("upstream", UPSTREAM)
@pytest.mark.parametrize("every_grad", [False, True], ids=["targets-fixed", "every-input"])
def test_loss_dsha_matches_the_chain_to_the_bit(every_grad, upstream):
    args = dsha_args(np.random.default_rng(4), every_grad)
    assert_matches_the_chain(loss_dsha, oracles.loss_dsha, args, upstream)


@pytest.mark.parametrize("upstream", UPSTREAM)
def test_loss_dsha_pairs_that_agree_give_signed_zeros_as_the_chain(upstream):
    rng = np.random.default_rng(5)
    x, f, h = rng.standard_normal((3, 4)), rng.standard_normal((3, 2)), rng.standard_normal((3, 4))
    args = (x, Tensor(x.copy(), requires_grad=True), f, Tensor(f + 1.0, requires_grad=True),
            Tensor(h, requires_grad=True), Tensor(h.copy(), requires_grad=True), 0.25)
    assert_matches_the_chain(loss_dsha, oracles.loss_dsha, args, upstream)


@pytest.mark.usefixtures("float64")
def test_fd_loss_dsha():
    rng = np.random.default_rng(6)
    x, x_hat, f, f_hat, h, z_q, beta = dsha_args(rng, every_grad=True)
    # the reconstruction pairs by differences; the commitment pair's
    # stop-gradients make its gradient the closed form below instead
    h.requires_grad = z_q.requires_grad = False
    err = check_gradients(lambda ts: loss_dsha(*ts[:4], h, z_q, beta), [x, x_hat, f, f_hat])
    assert err < 1e-6
    h.requires_grad = z_q.requires_grad = True
    with Graph():
        grads = backward(loss_dsha(x, x_hat, f, f_hat, h, z_q, beta), wrt=[h, z_q])
    n = h.data.size
    np.testing.assert_allclose(grads[h], 2 * beta * (h.data - z_q.data) / n, rtol=1e-12)
    np.testing.assert_allclose(grads[z_q], 2 * (z_q.data - h.data) / n, rtol=1e-12)


def test_loss_dsha_refuses_pairs_of_different_shapes():
    rng = np.random.default_rng(7)
    x, x_hat, f, f_hat, h, z_q, beta = dsha_args(rng, every_grad=False)
    with pytest.raises(ShapeError, match="loss pair shapes differ"):
        loss_dsha(x, x_hat, f, f_hat, h, Tensor(np.zeros((6, 3))), beta)
