"""Latent-expert refiner: calibration, aggregation, projection, orthogonality."""

from __future__ import annotations

import numpy as np
import pytest

from eeglm import autodiff as ad
from eeglm.autodiff import Graph, Tensor, backward
from eeglm.config import resolve_config
from eeglm.errors import NumericError, ShapeError
from eeglm.hashing import fnv1a_64
from eeglm.optim import AdamW
from eeglm.profiler import StubClient
from eeglm.refiner import (
    N_HASHES,
    HashedTextEmbedder,
    RefinerConfig,
    SemanticRefiner,
    attention_rows,
)
from eeglm.synth import load_corpus, make_dataset
from eeglm.topology import build_hierarchy, get_montage
from eeglm.training import profile_signal
from gradcheck import check_directional
from oracles import AttentionSpy, hashed_embed, matmul, transpose

TOY = RefinerConfig(n_experts=2, embed_dim=8, n_heads=2, ffn_mult=2)


def make_refiner(cfg=TOY, seed=0) -> SemanticRefiner:
    return SemanticRefiner(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calibrate_single_text_row_gets_unit_attention(rng):
    ref = make_refiner()
    h_text = rng.standard_normal((1, 8))
    ref.cal_attn = AttentionSpy(ref.cal_attn)
    with Graph():
        q_calib = ref.calibrate(h_text)
    np.testing.assert_allclose(ref.cal_attn.weights[0], np.ones((TOY.n_heads, 2, 1)), atol=1e-12)
    # with one key the attention mix ignores the queries entirely, so the
    # calibrated rows collapse to a single shared vector
    np.testing.assert_allclose(q_calib.data[0], q_calib.data[1], atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_calibrate_identical_text_rows_match_singleton(rng):
    ref = make_refiner()
    row = rng.standard_normal((1, 8))
    with Graph():
        single = ref.calibrate(row)
    with Graph():
        tiled = ref.calibrate(np.tile(row, (3, 1)))
    np.testing.assert_allclose(tiled.data, single.data, atol=1e-12)


def test_calibrate_rejects_empty_text():
    ref = make_refiner()
    with pytest.raises(ShapeError):
        ref.calibrate(np.zeros((0, 8)))


def test_calibrate_rejects_width_mismatch():
    ref = make_refiner()
    with pytest.raises(ShapeError):
        ref.calibrate(np.zeros((3, 5)))


@pytest.mark.usefixtures("float64")
def test_calibrate_gradients_match_finite_differences(rng):
    ref = make_refiner(seed=3)
    h_text = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    params = [p for p in ref.named_parameters().values() if p.requires_grad] + [h_text]

    def loss_fn(_):
        q_calib = ref.calibrate(h_text)
        return ad.sum_(ad.mul(q_calib, q_calib))

    assert check_directional(loss_fn, params, rng) < 1e-4


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("float64")
def test_aggregate_constant_tokens_reduce_to_value_projection(rng):
    ref = make_refiner(seed=1)
    u = rng.standard_normal(8)
    z_q = np.tile(u, (5, 1))
    with Graph():
        q_calib = ref.calibrate(rng.standard_normal((2, 8)))
        out, weights = ref.aggregate(q_calib, z_q)
        expected = ref.agg_attn.wo(ref.agg_attn.wv(Tensor(u.reshape(1, -1))))
    np.testing.assert_allclose(out.data, np.tile(expected.data, (2, 1)), atol=1e-10)
    np.testing.assert_allclose(weights.sum(axis=2), np.ones((2, 2)), atol=1e-9)


@pytest.mark.usefixtures("float64")
def test_aggregate_attention_rows_sum_to_one(rng):
    ref = make_refiner(seed=2)
    with Graph():
        q_calib = ref.calibrate(rng.standard_normal((4, 8)))
        _, weights = ref.aggregate(q_calib, rng.standard_normal((7, 8)))
    assert weights.shape == (TOY.n_heads, 2, 7)
    np.testing.assert_allclose(weights.sum(axis=2), np.ones((TOY.n_heads, 2)), atol=1e-9)


@pytest.mark.usefixtures("float64")
def test_aggregate_matches_hand_unrolled_attention(rng):
    cfg = RefinerConfig(n_experts=2, embed_dim=4, n_heads=1, ffn_mult=2)
    ref = make_refiner(cfg, seed=5)
    q_in = rng.standard_normal((2, 4))
    z_q = rng.standard_normal((3, 4))
    with Graph():
        out, weights = ref.aggregate(Tensor(q_in), z_q)

    att = ref.agg_attn

    def lin(x, layer):
        return x @ layer.w.data.T + layer.b.data

    q, k, v = lin(q_in, att.wq), lin(z_q, att.wk), lin(z_q, att.wv)
    scores = q @ k.T / np.sqrt(4.0)
    expected = np.exp(scores - scores.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    assert weights.shape == (1, 2, 3)
    np.testing.assert_allclose(weights[0], expected, atol=1e-12)
    np.testing.assert_allclose(out.data, lin(expected @ v, att.wo), atol=1e-12)


def test_aggregate_rejects_empty_stream(rng):
    ref = make_refiner()
    with pytest.raises(ShapeError):
        with Graph():
            q_calib = ref.calibrate(rng.standard_normal((2, 8)))
            ref.aggregate(q_calib, np.zeros((0, 8)))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_zero_ffn_constant_row_gives_zeros():
    ref = make_refiner()
    for layer in (ref.proj_ffn.fc1, ref.proj_ffn.fc2):
        layer.w.data = np.zeros_like(layer.w.data)
        layer.b.data = np.zeros_like(layer.b.data)
    with Graph():
        out = ref.project(Tensor(np.full((2, 8), 3.25)))
    np.testing.assert_allclose(out.data, np.zeros((2, 8)), atol=1e-12)


def test_project_preserves_extent(rng):
    ref = make_refiner()
    with Graph():
        out = ref.project(Tensor(rng.standard_normal((2, 8))))
    assert out.shape == (2, 8)


@pytest.mark.usefixtures("float64")
def test_project_gradients_match_finite_differences(rng):
    ref = make_refiner(seed=7)
    o_star = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
    params = [p for p in ref.named_parameters().values() if p.requires_grad] + [o_star]

    def loss_fn(_):
        return ad.sum_(ad.mul(ref.project(o_star), ref.project(o_star)))

    assert check_directional(loss_fn, params, rng) < 1e-4


def test_full_refiner_returns_the_projected_aggregate(rng):
    ref = make_refiner(seed=9)
    h_text, z_q = rng.standard_normal((6, 8)), rng.standard_normal((10, 8))
    with Graph():
        sem = ref(h_text, z_q)
        staged = ref.project(ref.aggregate(ref.calibrate(h_text), z_q)[0])
    assert isinstance(sem, Tensor) and sem.shape == (2, 8)
    np.testing.assert_array_equal(sem.data, staged.data)


def test_full_refiner_deterministic(rng):
    ref = make_refiner(seed=11)
    h_text = rng.standard_normal((4, 8))
    z_q = rng.standard_normal((6, 8))
    with Graph():
        a = ref(h_text, z_q)
    with Graph():
        b = ref(h_text, z_q)
    np.testing.assert_array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# orthogonality penalty
# ---------------------------------------------------------------------------


def test_orth_loss_single_expert_is_zero():
    ref = make_refiner(RefinerConfig(n_experts=1, embed_dim=8, n_heads=2, ffn_mult=2))
    with Graph():
        loss = ref.orth_loss()
    assert loss.data < 1e-12


def test_orth_loss_two_orthonormal_rows():
    ref = make_refiner()
    ref.q_lat.data = np.array(
        [[1.0, 0, 0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0, 0, 0]]
    )
    with Graph():
        loss = ref.orth_loss()
    assert abs(loss.data - np.sqrt(0.5)) < 1e-12


def test_orth_loss_scale_invariant(rng):
    ref = make_refiner()
    base = rng.standard_normal((2, 8))
    values = []
    for c in (1.0, 2.0, -3.5, 1e-3):
        ref.q_lat.data = c * base
        with Graph():
            values.append(float(ref.orth_loss().data))
    assert max(values) - min(values) < 1e-12


def test_orth_loss_permutation_invariant(rng):
    cfg = RefinerConfig(n_experts=4, embed_dim=8, n_heads=2, ffn_mult=2)
    ref = make_refiner(cfg)
    base = rng.standard_normal((4, 8))
    ref.q_lat.data = base
    with Graph():
        before = float(ref.orth_loss().data)
    ref.q_lat.data = base[[2, 0, 3, 1]]
    with Graph():
        after = float(ref.orth_loss().data)
    assert abs(before - after) < 1e-12


@pytest.mark.parametrize("n_experts", [1, 2, 4, 8])
def test_orth_loss_gram_as_one_linear_node_has_the_matmul_transpose_numbers(n_experts):
    cfg = RefinerConfig(n_experts=n_experts, embed_dim=8, n_heads=2, ffn_mult=2)
    ref = make_refiner(cfg, seed=n_experts)
    q = ref.q_lat

    def chain():
        gram = matmul(q, transpose(q))
        fro_sq = ad.sum_(ad.mul(q, q))
        dev = ad.sub(ad.div(gram, fro_sq), np.eye(n_experts))
        return ad.sqrt(ad.sum_(ad.mul(dev, dev)))

    results = []
    for fn in (ref.orth_loss, chain):
        with Graph():
            loss = fn()
            results.append((loss.data, backward(loss, wrt=[q])[q]))
    (l1, g1), (l2, g2) = results
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_orth_loss_rejects_all_zero_experts():
    ref = make_refiner()
    ref.q_lat.data = np.zeros((2, 8))
    with pytest.raises(NumericError):
        ref.orth_loss()


def test_orth_loss_descent_suppresses_off_diagonals():
    cfg = RefinerConfig(n_experts=4, embed_dim=16, n_heads=2, ffn_mult=2)
    ref = make_refiner(cfg, seed=13)
    opt = AdamW({"q_lat": ref.q_lat}, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    for _ in range(500):
        with Graph():
            loss = ref.orth_loss()
            grads = backward(loss, wrt=[ref.q_lat])
        opt.step({"q_lat": grads[ref.q_lat]}, lr=0.02)
    q = ref.q_lat.data
    gram = q @ q.T / np.sum(q * q)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-2


# ---------------------------------------------------------------------------
# text embedder and export helper
# ---------------------------------------------------------------------------


def test_embedder_deterministic_unit_rows():
    emb = HashedTextEmbedder(embed_dim=8)
    a = emb.embed("Delta power rises frontally")
    b = emb.embed("delta power rises frontally")
    assert a.shape == (4, 8)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), np.ones(4), atol=1e-12)


def test_embedder_empty_text_gives_zero_rows():
    emb = HashedTextEmbedder(embed_dim=8)
    assert emb.embed("").shape == (0, 8)


def test_embedder_distinguishes_words():
    emb = HashedTextEmbedder(embed_dim=64)
    a, b = emb.embed("alpha"), emb.embed("gamma")
    assert not np.allclose(a, b)


def _same_bits(text: str, dim: int) -> bool:
    return HashedTextEmbedder(dim).embed(text).tobytes() == hashed_embed(text, dim, N_HASHES).tobytes()


def test_embedder_matches_the_per_hash_loop_on_lm_infer_profiles(tmp_path):
    # the 96 profiles of perfbench's lm_infer set: `synth` at seed 8, 32 per class
    make_dataset(tmp_path, n_per_class=32, montage="synthetic-4", seed=8)
    hier = build_hierarchy(get_montage("synthetic-4"))
    data_cfg = resolve_config(None, [{"data": {"montage": "synthetic-4"}}])["data"]
    texts = set()
    for name, rec, _ in load_corpus(tmp_path):
        _, _, result = profile_signal(rec, hier, data_cfg, name, StubClient())
        texts.add(result.profile.flat_text())
    assert len(texts) == 96
    for text in texts:
        assert len(text.split()) > 100 and _same_bits(text, 8) and _same_bits(text, 6)


def test_embedder_counts_repeated_words_and_colliding_hashes():
    assert _same_bits("alpha beta alpha alpha", 8)
    # a word's hashes take distinct columns when the width is a power of two;
    # at width 6, find a word two of whose hashes share a column
    word = next(
        w for w in (f"w{k}" for k in range(1000))
        if len({h % 6 for h in (fnv1a_64(f"{s}:{w}") for s in range(N_HASHES))}) < N_HASHES
    )
    assert np.max(HashedTextEmbedder(6).embed(word)) > 1 / np.sqrt(N_HASHES)
    assert _same_bits(f"{word} x {word}", 6)


def test_attention_rows_layout(rng):
    amap = rng.dirichlet(np.ones(6), size=2)
    rows = attention_rows(amap, channels=("Cz", "Pz"), n_patches=3)
    assert len(rows) == 12
    assert rows[0] == (0, "Cz", 0, amap[0, 0])
    assert rows[4] == (0, "Pz", 1, amap[0, 4])
    total = sum(w for e, _, _, w in rows if e == 1)
    assert abs(total - 1.0) < 1e-9


def test_attention_rows_rejects_bad_extent(rng):
    with pytest.raises(ShapeError):
        attention_rows(np.ones((2, 5)) / 5.0, channels=("Cz", "Pz"), n_patches=3)
