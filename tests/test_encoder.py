"""Temporal embedder and dual-stream encoder contracts."""

from __future__ import annotations

import numpy as np
import pytest

from eeglm import autodiff as ad
from eeglm.autodiff import Graph, Tensor, backward
from eeglm.encoder import CsaBlock, DualStreamEncoder, EncoderConfig, TemporalEmbedder
from eeglm.errors import ConfigError, ShapeError
from eeglm.topology import Montage, build_hierarchy, get_montage
from gradcheck import check_directional
from oracles import AttentionSpy, matmul

TOY = EncoderConfig(
    embed_dim=8, n_heads=2, ffn_mult=2, patch_len=40, max_patches=8, montage=None
)


def tiny_montage(c: int) -> Montage:
    labels = tuple(f"X{i}" for i in range(c))
    bands = ["anterior", "central", "posterior"]
    region = {}
    for i, lab in enumerate(labels):
        band = bands[i % 3] if c >= 3 else "anterior"
        zone = f"{band}/mid"
        region[lab] = (band, zone, f"{zone}/c{i}")
    return Montage(labels=labels, region_map=region)


def streams(enc, x, positions):
    """The pooled levels and the final global (P x E) and local (C*P x E)
    stream states of `enc` on patches `x`, rebuilt from its blocks in the
    order DualStreamEncoder.__call__ runs them, with position rows
    `positions`."""
    c, p, _ = x.shape
    e = enc.cfg.embed_dim
    levels = enc.pool_levels(ad.add(enc.embedder(x), enc.positions(positions)))
    g = ad.reshape(levels[0], (p, e))
    for block, finer in zip(enc.global_blocks, levels[1:]):
        g = block(g, ad.reshape(finer, (finer.shape[0] * p, e)))
    l = ad.reshape(levels[4], (c * p, e))
    for block, coarser in zip(enc.local_blocks, levels[3::-1]):
        l = block(l, ad.reshape(coarser, (coarser.shape[0] * p, e)))
    return levels, enc.global_final(g, g), enc.local_final(l, l)


def test_conv_stack_length_for_w200():
    cfg = EncoderConfig(
        embed_dim=16, n_heads=2, ffn_mult=4, patch_len=200, max_patches=64, montage=None
    )
    assert cfg.conv_out_len() == 25


def test_embedder_zero_patch_zero_feature():
    rng = np.random.default_rng(0)
    emb = TemporalEmbedder(TOY, rng)
    for t in (emb.conv1_b, emb.conv2_b, emb.conv3_b, emb.proj.b):
        t.data = np.zeros_like(t.data)
    out = emb(np.zeros((2, 1, 40)))
    np.testing.assert_allclose(out.data, np.zeros((2, 1, 8)), atol=1e-15)


def test_embedder_patch_length_mismatch():
    emb = TemporalEmbedder(TOY, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        emb(np.zeros((1, 1, 39)))


@pytest.mark.usefixtures("float64")
def test_embedder_gradcheck():
    rng = np.random.default_rng(1)
    emb = TemporalEmbedder(TOY, rng)
    patches = rng.uniform(-1, 1, (2, 2, 40))
    params = list(emb.named_parameters().values())

    def fn(_):
        out = emb(patches)
        return ad.sum_(ad.mul(out, out))

    err = check_directional(fn, params, np.random.default_rng(2))
    assert err < 1e-4


def test_csa_singleton_key_attention_is_one():
    rng = np.random.default_rng(3)
    block = CsaBlock(TOY, rng)
    q = Tensor(rng.standard_normal((4, 8)))
    kv = Tensor(rng.standard_normal((1, 8)))
    block.attn = AttentionSpy(block.attn)
    block(q, kv)
    np.testing.assert_allclose(block.attn.weights[0], np.ones((TOY.n_heads, 4, 1)))


@pytest.mark.usefixtures("float64")
def test_csa_identical_keys_degenerate_mixing():
    rng = np.random.default_rng(4)
    block = CsaBlock(TOY, rng)
    q = Tensor(rng.standard_normal((3, 8)))
    row = rng.standard_normal(8)
    kv_many = Tensor(np.tile(row, (5, 1)))
    kv_one = Tensor(row[None, :])
    out_many = block(q, kv_many)
    out_one = block(q, kv_one)
    np.testing.assert_allclose(out_many.data, out_one.data, atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_csa_gradcheck_small():
    rng = np.random.default_rng(5)
    block = CsaBlock(TOY, rng)
    q0 = rng.standard_normal((2, 8))
    kv0 = rng.standard_normal((3, 8))
    params = list(block.named_parameters().values())
    q = Tensor(q0, requires_grad=True)
    kv = Tensor(kv0, requires_grad=True)

    def fn(_):
        out = block(q, kv)
        return ad.sum_(ad.mul(out, out))

    err = check_directional(fn, params + [q, kv], np.random.default_rng(6))
    assert err < 1e-4


@pytest.mark.usefixtures("float64")
def test_attention_rows_are_probability_vectors():
    rng = np.random.default_rng(7)
    enc = DualStreamEncoder(TOY, rng, hierarchy=build_hierarchy(tiny_montage(4)))
    blocks = enc.global_blocks + enc.local_blocks + [enc.global_final, enc.local_final]
    for block in blocks:
        block.attn = AttentionSpy(block.attn)
    enc(rng.standard_normal((4, 2, 40)))
    for block in blocks:
        (attn,) = block.attn.weights
        assert np.all(attn >= 0) and np.all(attn <= 1)
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones(attn.shape[:-1]), atol=1e-9)


def test_stream_shapes_fixed():
    rng = np.random.default_rng(8)
    hier = build_hierarchy(tiny_montage(2))
    cfg = EncoderConfig(
        embed_dim=4, n_heads=2, ffn_mult=2, patch_len=40, max_patches=4, montage=None
    )
    enc = DualStreamEncoder(cfg, rng, hierarchy=hier)
    x = rng.standard_normal((2, 1, 40))
    _, g, l = streams(enc, x, np.arange(1))
    # global stream holds 1 token per patch, local stream C per patch
    assert g.shape == (1, 4)
    assert l.shape == (2, 4)
    assert enc(x).shape == (2, 1, 4)


def test_output_extent_c19():
    rng = np.random.default_rng(9)
    cfg = EncoderConfig(
        embed_dim=16, n_heads=2, ffn_mult=2, patch_len=40, max_patches=4, montage=None
    )
    enc = DualStreamEncoder(cfg, rng)
    assert enc(rng.standard_normal((19, 3, 40))).shape == (19, 3, 16)


def test_channel_count_mismatch_rejected():
    # recordings meet the montage check before they are patched; a wrong
    # count handed to the encoder directly fails in the pooling mix
    rng = np.random.default_rng(10)
    enc = DualStreamEncoder(TOY, rng, hierarchy=build_hierarchy(tiny_montage(4)))
    with pytest.raises(ShapeError):
        enc(np.zeros((5, 1, 40)))


def test_forward_deterministic():
    rng = np.random.default_rng(11)
    enc = DualStreamEncoder(TOY, rng, hierarchy=build_hierarchy(tiny_montage(3)))
    x = rng.standard_normal((3, 2, 40))
    a = enc(x).data
    b = enc(x).data
    assert np.array_equal(a, b)


@pytest.mark.usefixtures("float64")
def test_patch_permutation_equivariance():
    rng = np.random.default_rng(12)
    hier = build_hierarchy(tiny_montage(3))
    enc = DualStreamEncoder(TOY, rng, hierarchy=hier)
    x = rng.standard_normal((3, 4, 40))
    perm = np.array([2, 0, 3, 1])

    # permute patches *after* embedding: run the dual-stream machinery on
    # permuted level inputs by permuting the raw patches and the position
    # rows consistently
    _, g_base, l_base = streams(enc, x, np.arange(4))
    g_base = g_base.data.reshape(1, 4, 8)
    l_base = l_base.data.reshape(3, 4, 8)

    # the same run with the patch axis permuted everywhere downstream
    _, g, l = streams(enc, x[:, perm, :], np.arange(4)[perm])
    np.testing.assert_allclose(g.data.reshape(1, 4, 8), g_base[:, perm, :], atol=1e-9)
    np.testing.assert_allclose(l.data.reshape(3, 4, 8), l_base[:, perm, :], atol=1e-9)


@pytest.mark.usefixtures("float64")
def test_fusion_zero_projection_leaves_level_mean():
    rng = np.random.default_rng(13)
    hier = build_hierarchy(tiny_montage(3))
    enc = DualStreamEncoder(TOY, rng, hierarchy=hier)
    enc.fuse_proj.w.data = np.zeros_like(enc.fuse_proj.w.data)
    enc.fuse_proj.b.data = np.zeros_like(enc.fuse_proj.b.data)
    x = rng.standard_normal((3, 2, 40))
    levels, _, _ = streams(enc, x, np.arange(2))
    # brute-force fusion oracle: mean over levels 2..4 of channel-broadcast
    # pooled features
    from oracles import broadcast_level

    expect = np.zeros((3, 2, 8))
    for level in (2, 3, 4):
        expect += broadcast_level(levels[level - 1].data, hier, level)
    expect /= 3.0
    np.testing.assert_allclose(enc(x).data, expect, atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_fusion_additive_structure():
    # H_EEG = proj(concat(G_broadcast, L_final)) + mean(levels 2..4); with a
    # zeroed global half of the projection and zero bias, the fused term is
    # a linear image of L_final alone
    from oracles import broadcast_level

    rng = np.random.default_rng(14)
    hier = build_hierarchy(tiny_montage(2))
    cfg = EncoderConfig(
        embed_dim=4, n_heads=2, ffn_mult=2, patch_len=40, max_patches=4, montage=None
    )
    enc = DualStreamEncoder(cfg, rng, hierarchy=hier)
    enc.fuse_proj.b.data = np.zeros_like(enc.fuse_proj.b.data)
    x = rng.standard_normal((2, 1, 40))
    levels, g, l = streams(enc, x, np.arange(1))

    g = g.data.reshape(1, 1, 4)
    l = l.data.reshape(2, 1, 4)
    cat = np.concatenate([np.broadcast_to(g, (2, 1, 4)), l], axis=-1)
    mean234 = sum(broadcast_level(levels[k - 1].data, hier, k) for k in (2, 3, 4)) / 3.0
    w = enc.fuse_proj.w.data
    np.testing.assert_allclose(enc(x).data, cat @ w.T + mean234, atol=1e-12)

    # zero the global half: the fused contribution depends on L_final only
    w_local_only = w.copy()
    w_local_only[:, :4] = 0.0
    np.testing.assert_allclose(cat @ w_local_only.T, l @ w[:, 4:].T, atol=1e-12)


@pytest.mark.usefixtures("float64")
def test_full_encoder_gradcheck():
    rng = np.random.default_rng(15)
    hier = build_hierarchy(tiny_montage(3))
    enc = DualStreamEncoder(TOY, rng, hierarchy=hier)
    x = rng.uniform(-1, 1, (3, 2, 40))
    params = [p for p in enc.named_parameters().values() if p.requires_grad]

    def fn(_):
        h_eeg = enc(x)
        return ad.sum_(ad.mul(h_eeg, h_eeg))

    err = check_directional(fn, params, np.random.default_rng(16))
    assert err < 1e-4


def _chain_mix(mat, x):
    """ad.mix as the reshape -> matmul(Tensor(mat)) -> reshape chain."""
    n_out, n_in = mat.shape
    flat = ad.reshape(x, (n_in, -1))
    return ad.reshape(matmul(Tensor(mat), flat), (n_out,) + x.shape[1:])


class ChainPoolingEncoder(DualStreamEncoder):
    """The encoder with the hierarchy pooling and broadcasts written as
    reshape/matmul chains: one shared reshape of the features feeds the
    five poolings, and each broadcast level goes through its own."""

    def pool_levels(self, features):
        c, p, e = features.shape
        flat = ad.reshape(features, (c, p * e))
        levels = []
        for level in range(1, 6):
            mat = self.hierarchy.mean_matrix(level)
            levels.append(ad.reshape(matmul(Tensor(mat), flat), (mat.shape[0], p, e)))
        return levels

    def broadcast_mean_234(self, levels):
        total = None
        for level in (2, 3, 4):
            full = _chain_mix(self.hierarchy.member_matrix(level), levels[level - 1])
            total = full if total is None else ad.add(total, full)
        return ad.mul(total, 1.0 / 3.0)


@pytest.mark.parametrize("montage", ["synthetic-4", "builtin-1020"])
def test_encoder_values_and_gradients_equal_the_chain_pooling_to_the_bit(montage, monkeypatch):
    hier = build_hierarchy(get_montage(montage))
    c = hier.montage.n_channels
    # the patched ad.mix below also builds the fusion's broadcast of the
    # global stream, which multiplied by a ones column before
    assert np.array_equal(hier.member_matrix(1), np.ones((c, 1)))
    x = np.random.default_rng(17).standard_normal((c, 3, 40))

    def run(cls):
        enc = cls(TOY, np.random.default_rng(18), hierarchy=hier)
        params = enc.named_parameters()
        with Graph():
            h_eeg = enc(x)
            grads = backward(ad.sum_(ad.mul(h_eeg, h_eeg)), wrt=params.values())
        return h_eeg.data, {name: grads[p] for name, p in params.items()}

    h_fused, g_fused = run(DualStreamEncoder)
    monkeypatch.setattr(ad, "mix", _chain_mix)
    h_chain, g_chain = run(ChainPoolingEncoder)
    assert np.array_equal(h_fused, h_chain)
    assert g_fused.keys() == g_chain.keys()
    for name in g_fused:
        assert np.array_equal(g_fused[name], g_chain[name]), name
