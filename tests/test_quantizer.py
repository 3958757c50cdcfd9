"""Quantizer: nearest-neighbour semantics, gradients, health, token IO."""

from __future__ import annotations

import numpy as np
import pytest

from eeglm import autodiff as ad
from eeglm.autodiff import Graph, Tensor, backward
from eeglm.errors import DataError, ShapeError
from eeglm.quantizer import (
    QuantizerConfig,
    TokenSequence,
    VectorQuantizer,
    codebook_health,
    nearest_indices,
    save_tokens,
)
from eeglm.losses import loss_dsha


def quant_loss(h, z_q, beta: float):
    """The commitment loss alone: `loss_dsha` with reconstruction pairs that agree."""
    zero = np.zeros((1, 1))
    return loss_dsha(zero, Tensor(zero), zero, Tensor(zero), h, z_q, beta)


def test_quantize_hand_case():
    cb = np.array([[0.0, 0.0], [1.0, 1.0]])
    idx = nearest_indices(np.array([[0.9, 0.8]]), cb)
    assert idx[0] == 1  # the second entry (index 1 zero-based)


def test_quantize_exact_match():
    rng = np.random.default_rng(0)
    cb = rng.standard_normal((8, 4))
    idx = nearest_indices(cb[2][None, :], cb)
    assert idx[0] == 2


def test_quantize_matches_bruteforce():
    rng = np.random.default_rng(1)
    cb = rng.standard_normal((32, 6))
    rows = rng.standard_normal((100, 6))
    got = nearest_indices(rows, cb)
    for i, row in enumerate(rows):
        dists = np.linalg.norm(cb - row, axis=1)
        assert dists[got[i]] <= dists.min() + 1e-12
        assert got[i] == int(np.argmin(dists))


def test_tie_breaks_to_lowest_index():
    cb = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    idx = nearest_indices(np.array([[0.0, 0.0], [1.0, 0.0]]), cb)
    assert idx[0] == 0  # equidistant to all three -> lowest index
    assert idx[1] == 0  # exact tie between entries 0 and 2 -> 0


def test_quantization_idempotent():
    rng = np.random.default_rng(2)
    cb = rng.standard_normal((16, 4))
    rows = rng.standard_normal((50, 4))
    idx = nearest_indices(rows, cb)
    again = nearest_indices(cb[idx], cb)
    np.testing.assert_array_equal(idx, again)


@pytest.mark.parametrize("b", [1, 3, 8])
def test_batched_nearest_indices_are_a_loop_over_the_members(b):
    # codes a rounding error apart, so that the argmin follows the last bits,
    # at a width where one product over the merged batch changes them
    rng = np.random.default_rng(3)
    base = rng.standard_normal(32).astype(np.float32)
    cb = base + 1e-6 * rng.standard_normal((64, 32)).astype(np.float32)
    rows = base + 1e-6 * rng.standard_normal((b, 8, 32)).astype(np.float32)
    got = nearest_indices(rows, cb)
    assert got.shape == (b, 8)
    for i in range(b):
        assert got[i].tobytes() == nearest_indices(rows[i], cb).tobytes()


@pytest.mark.parametrize("shape", [(8,), (2, 5)], ids=["1-d", "other-width"])
def test_nearest_indices_refuse_rows_that_are_not_n_by_the_code_width(shape):
    with pytest.raises(ShapeError, match="codebook width"):
        nearest_indices(np.zeros(shape), np.zeros((4, 8)))


def test_quantizer_gives_a_batch_one_token_sequence_per_recording():
    q = VectorQuantizer(QuantizerConfig(num_codes=8, code_dim=4, beta=0.25, revival_epochs=2), 6,
                        np.random.default_rng(4))
    h = Tensor(np.random.default_rng(5).standard_normal((3, 2, 5, 6)))
    tokens, z_up, h_down, z_q = q(h)
    assert [(s.channels, s.patches) for s in tokens] == [(2, 5)] * 3
    assert (z_up.shape, h_down.shape, z_q.shape) == ((3, 10, 6), (3, 10, 4), (3, 10, 4))
    for i, seq in enumerate(tokens):
        alone = q(Tensor(h.data[i]))
        assert seq.indices.tobytes() == alone[0].indices.tobytes()
        assert z_q.data[i].tobytes() == alone[3].data.tobytes()


def test_quant_loss_values():
    h = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    z = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
    loss = quant_loss(h, z, beta=0.25)
    assert abs(float(loss.data) - 0.625) < 1e-15
    same = quant_loss(h, Tensor(h.data.copy()), beta=0.25)
    assert float(same.data) == 0.0


@pytest.mark.usefixtures("float64")
def test_quant_loss_gradients():
    rng = np.random.default_rng(3)
    h = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    beta = 0.25
    with Graph():
        loss = quant_loss(h, z, beta)
        grads = backward(loss, wrt=[h, z])
    n = h.data.size
    np.testing.assert_allclose(grads[h], 2 * beta * (h.data - z.data) / n, atol=1e-12)
    np.testing.assert_allclose(grads[z], 2 * (z.data - h.data) / n, atol=1e-12)


def test_straight_through_contract():
    rng = np.random.default_rng(4)
    cfg = QuantizerConfig(num_codes=8, code_dim=4, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, embed_dim=6, rng=rng)
    h = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
    with Graph():
        tokens, z_up, h_down, z_q = quant(h)
        loss = ad.sum_(z_up)
        grads = backward(loss, wrt=[h, quant.codebook])
    # straight-through: gradient reaches the encoder input...
    assert np.any(grads[h] != 0)
    # ...and never the codebook through this path
    np.testing.assert_array_equal(grads[quant.codebook], np.zeros_like(quant.codebook.data))


def test_codebook_receives_gradient_through_quant_loss():
    rng = np.random.default_rng(5)
    cfg = QuantizerConfig(num_codes=8, code_dim=4, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, embed_dim=6, rng=rng)
    h = Tensor(rng.standard_normal((2, 2, 6)), requires_grad=True)
    with Graph():
        tokens, z_up, h_down, z_q = quant(h)
        loss = quant_loss(h_down, z_q, 0.25)
        grads = backward(loss, wrt=[quant.codebook])
    assert np.any(grads[quant.codebook] != 0)


def test_token_sequence_extents():
    with pytest.raises(DataError):
        TokenSequence(indices=np.arange(5), channels=2, patches=3)


def test_codebook_health_cases():
    assert abs(codebook_health(np.ones(8))["perplexity"] - 8.0) < 1e-12
    assert abs(codebook_health(np.array([5, 0, 0]))["perplexity"] - 1.0) < 1e-12
    rep = codebook_health(np.array([10, 10, 0, 0]))
    assert abs(rep["perplexity"] - 2.0) < 1e-12
    assert rep["dead_entries"] == 2


def test_dead_entry_revival():
    rng = np.random.default_rng(6)
    cfg = QuantizerConfig(num_codes=4, code_dim=3, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, embed_dim=3, rng=rng)
    pool = rng.standard_normal((10, 3))
    # entry 3 never used for two epochs
    quant.epoch_counts[:] = [5, 4, 3, 0]
    assert quant.end_epoch(pool, rng) == 0
    before = quant.codebook.data[3].copy()
    quant.epoch_counts[:] = [5, 4, 3, 0]
    assert quant.end_epoch(pool, rng) == 1
    assert not np.allclose(quant.codebook.data[3], before)
    np.testing.assert_array_equal(quant.unused_epochs, [0, 0, 0, 0])


def test_kmeans_warm_start_moves_codebook():
    rng = np.random.default_rng(7)
    cfg = QuantizerConfig(num_codes=4, code_dim=2, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, embed_dim=2, rng=rng)
    before = quant.codebook.data.copy()
    clusters = np.concatenate([
        rng.normal(loc=c, scale=0.05, size=(20, 2)) for c in (-2.0, -0.5, 0.5, 2.0)
    ])
    quant.warm_start(clusters, rng)
    assert not np.allclose(quant.codebook.data, before)
    # centers land near the four cluster means
    got = np.sort(quant.codebook.data.mean(axis=1))
    np.testing.assert_allclose(got, [-2.0, -0.5, 0.5, 2.0], atol=0.2)


def test_warm_start_on_fewer_rows_than_codes_jitters_copies_by_1e_4():
    # one row, three codes: the row is tiled three times and each copy moved
    # by 1e-4 times the rng's first standard-normal draw; k-means++ then picks
    # the three distinct copies and each stays its own one-member cluster
    cfg = QuantizerConfig(num_codes=3, code_dim=2, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, embed_dim=2, rng=np.random.default_rng(0))
    row = np.array([[1.0, -1.0]])
    quant.warm_start(row, np.random.default_rng(8))
    copies = np.tile(row, (3, 1)) + 1e-4 * np.random.default_rng(8).standard_normal((3, 2))
    got = quant.codebook.data
    copies = copies.astype(got.dtype)  # as the codebook holds them
    assert sorted(map(tuple, got)) == sorted(map(tuple, copies))
    assert 0 < np.abs(got - row).max() < 1e-3


class _SeedRowZero:
    """k-means++ seeding that picks row 0 for every center, whatever its odds."""

    def integers(self, n):
        return 0

    def choice(self, n, p):
        return 0


def test_warm_start_reseeds_an_empty_cluster_to_the_farthest_row():
    # all three centers start at row 0 = (2, 0), so every row joins cluster 0
    # (ties take the lowest index), at distances 0, 4 and 3. Cluster 1 takes
    # the farthest row (-2, 0), cluster 2 the next farthest (5, 0), and the
    # next assignment gives each center its own row.
    cfg = QuantizerConfig(num_codes=3, code_dim=2, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, embed_dim=2, rng=np.random.default_rng(0))
    rows = np.array([[2.0, 0.0], [-2.0, 0.0], [5.0, 0.0]])
    quant.warm_start(rows, _SeedRowZero())
    np.testing.assert_array_equal(quant.codebook.data, rows)


def test_token_dump_roundtrip(tmp_path):
    seqs = [
        TokenSequence(indices=np.array([0, 3, 2, 1, 1, 0]), channels=2, patches=3),
        TokenSequence(indices=np.array([3, 3, 3, 0, 0, 0]), channels=2, patches=3),
    ]
    path = tmp_path / "tokens.txt"
    save_tokens(path, seqs, num_codes=4)
    header, *rows = path.read_text().splitlines()
    assert header == "2 3 4"
    back = [np.array(row.split(), dtype=np.int64) for row in rows]
    assert len(back) == 2
    np.testing.assert_array_equal(back[0], seqs[0].indices)
    np.testing.assert_array_equal(back[1], seqs[1].indices)
