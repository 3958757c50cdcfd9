"""Toy backbone: causality, sem injection, adapters, and sequence losses."""

from __future__ import annotations

import numpy as np
import pytest

from eeglm import autodiff as ad
from eeglm.autodiff import Graph, Tensor, backward
from eeglm.backbone import BackboneConfig, ToyBackbone
from eeglm.errors import AssemblyError, ConfigError, ShapeError
from eeglm.losses import loss_cpt, loss_dsha, loss_ntp, loss_sft, span_nll
from eeglm.optim import AdamW
from eeglm.quantizer import QuantizerConfig, VectorQuantizer
from eeglm.sequences import VocabSpec, assemble_sequence
from gradcheck import check_directional
import oracles
from oracles import AttentionSpy, matmul, softmax, transpose
from test_losses import sliced_span_nll
from test_quantizer import quant_loss

VOCAB = VocabSpec(v_text=40, n_codes=12)
CFG = BackboneConfig(
    vocab=VOCAB, n_layers=2, embed_dim=16, n_heads=2, ffn_mult=2, max_len=48, sem_dim=6
)


def make_backbone(cfg=CFG, seed=0) -> ToyBackbone:
    return ToyBackbone(cfg, np.random.default_rng(seed))


def adapter_parameters(model) -> dict[str, Tensor]:
    return {
        name: p
        for name, p in model.named_parameters().items()
        if "lora_a" in name or "lora_b" in name
    }


def demo_sequence(rng, sem_rows=2, answer=False):
    """A hybrid sequence and the `sem_rows` continuous rows of its sem span."""
    text = rng.integers(0, VOCAB.v_text, size=4)
    eeg = rng.integers(0, VOCAB.n_codes, size=5)
    sem = rng.standard_normal((sem_rows, CFG.sem_dim))
    if answer:
        seq = assemble_sequence(
            text, sem_rows, eeg, VOCAB, instruction_ids=rng.integers(0, 40, 3), answer_ids=[7]
        )
        return seq, sem
    return assemble_sequence(text, sem_rows, eeg, VOCAB), sem


# ---------------------------------------------------------------------------
# forward structure
# ---------------------------------------------------------------------------


def test_logits_extent(rng):
    model = make_backbone()
    seq, sem = demo_sequence(rng)
    with Graph():
        out = model.logits(seq, Tensor(sem))
    assert out.shape == (seq.length, VOCAB.v_total)


def test_causality_perturbation_probe(rng):
    model = make_backbone(seed=1)
    seq, sem = demo_sequence(rng)
    with Graph():
        base = model.logits(seq, Tensor(sem)).data.copy()
    s, e = seq.spans["eeg"]
    p = e - 2
    ids = seq.ids.copy()
    ids[p] = VOCAB.eeg_offset + ((ids[p] - VOCAB.eeg_offset + 3) % VOCAB.n_codes)
    perturbed = assemble_sequence(
        seq.ids[seq.spans["text"][0] : seq.spans["text"][1]],
        len(sem),
        ids[s:e] - VOCAB.eeg_offset,
        VOCAB,
    )
    with Graph():
        changed = model.logits(perturbed, Tensor(sem)).data
    np.testing.assert_allclose(changed[:p], base[:p], atol=1e-12)
    assert not np.allclose(changed[p], base[p])


def test_sem_rows_enter_through_projection(rng):
    model = make_backbone(seed=2)
    model.sem_proj.w.data = np.zeros_like(model.sem_proj.w.data)
    model.sem_proj.b.data = np.zeros_like(model.sem_proj.b.data)
    seq, sem = demo_sequence(rng)
    with Graph():
        x = model.embed_sequence(seq, Tensor(sem))
    s, e = seq.spans["sem"]
    np.testing.assert_allclose(x.data[s:e], model.pos_emb.data[s:e], atol=1e-12)


def test_sem_rows_must_match_span(rng):
    model = make_backbone()
    seq, sem = demo_sequence(rng, sem_rows=1)
    for rows in (np.zeros((2, CFG.sem_dim)), np.zeros((0, CFG.sem_dim)), sem[:, :4]):
        with pytest.raises(ConfigError, match="do not fit span of 1 positions"):
            with Graph():
                model.embed_sequence(seq, Tensor(rows))


def test_sem_gradient_reaches_projection(rng):
    model = make_backbone(seed=3)
    seq, sem = demo_sequence(rng)
    with Graph():
        text_loss, eeg_loss = loss_ntp(seq, model, Tensor(sem))
        grads = backward(
            ad.add(text_loss, eeg_loss), wrt=list(model.sem_proj.named_parameters().values())
        )
    assert any(np.abs(g).max() > 0 for g in grads.values())


def test_sequence_longer_than_positions_rejected(rng):
    cfg = BackboneConfig(
        vocab=VOCAB, n_layers=1, embed_dim=8, n_heads=2, ffn_mult=4, max_len=4, sem_dim=6
    )
    model = make_backbone(cfg)
    seq, sem = demo_sequence(rng)
    with pytest.raises(ConfigError, match="max_len"):
        with Graph():
            model.logits(seq, Tensor(sem))


@pytest.mark.usefixtures("float64")
def test_backbone_gradients_match_finite_differences(rng):
    cfg = BackboneConfig(
        vocab=VocabSpec(v_text=10, n_codes=5),
        n_layers=1, embed_dim=8, n_heads=2, ffn_mult=2, max_len=24, sem_dim=4,
    )
    model = ToyBackbone(cfg, np.random.default_rng(5))
    seq = assemble_sequence([1, 2], 2, [0, 3], cfg.vocab)
    sem = Tensor(rng.standard_normal((2, 4)))
    params = [p for p in model.named_parameters().values() if p.requires_grad]

    def loss_fn(_):
        text_loss, eeg_loss = loss_ntp(seq, model, sem)
        return ad.add(text_loss, eeg_loss)

    assert check_directional(loss_fn, params, rng) < 1e-4


# ---------------------------------------------------------------------------
# sequence losses
# ---------------------------------------------------------------------------


def zero_head(model: ToyBackbone) -> None:
    model.head.w.data = np.zeros_like(model.head.w.data)


@pytest.mark.usefixtures("float64")
def test_uniform_logits_give_log_vocab(rng):
    model = make_backbone(seed=6)
    zero_head(model)
    seq, sem = demo_sequence(rng)
    with Graph():
        text_loss, eeg_loss = loss_ntp(seq, model, Tensor(sem))
    expected = np.log(VOCAB.v_total)
    assert abs(text_loss.data - expected) < 1e-9
    assert abs(eeg_loss.data - expected) < 1e-9


@pytest.mark.usefixtures("float64")
def test_uniform_logits_sft_loss(rng):
    model = make_backbone(seed=7)
    zero_head(model)
    seq, sem = demo_sequence(rng, answer=True)
    with Graph():
        loss = loss_sft(seq, model, Tensor(sem))
    assert abs(loss.data - np.log(VOCAB.v_total)) < 1e-9


def test_ntp_gradient_zero_at_sem_target_rows(rng):
    model = make_backbone(seed=8)
    seq, sem = demo_sequence(rng, sem_rows=3)
    with Graph():
        logits = model.logits(seq, Tensor(sem))
        total = ad.add(sliced_span_nll(logits, seq, "text"), sliced_span_nll(logits, seq, "eeg"))
        grads = backward(total, wrt=[logits])
    g = grads[logits]
    sem_s, sem_e = seq.spans["sem"]
    # rows that would predict a sem slot or the separator after it
    for row in range(sem_s - 1, sem_e):
        assert np.all(g[row] == 0.0)
    # rows predicting eos are not targets either
    assert np.all(g[seq.length - 2] == 0.0)
    # text and eeg target rows do receive gradient
    assert np.abs(g[seq.spans["text"][0] - 1]).max() > 0
    assert np.abs(g[seq.spans["eeg"][0] - 1]).max() > 0


def test_sft_gradient_zero_outside_answer_rows(rng):
    model = make_backbone(seed=9)
    seq, sem = demo_sequence(rng, answer=True)
    with Graph():
        logits = model.logits(seq, Tensor(sem))
        loss = sliced_span_nll(logits, seq, "answer")
        grads = backward(loss, wrt=[logits])
    g = grads[logits]
    ans_s, ans_e = seq.spans["answer"]
    target_rows = set(range(ans_s - 1, ans_e - 1))
    for row in range(seq.length):
        if row in target_rows:
            assert np.abs(g[row]).max() > 0
        else:
            assert np.all(g[row] == 0.0)


@pytest.mark.usefixtures("float64")
def test_single_token_eeg_span_nll(rng):
    model = make_backbone(seed=10)
    seq = assemble_sequence([1, 2], 0, [4], VOCAB)
    sem = Tensor(np.zeros((0, CFG.sem_dim)))
    with Graph():
        logits = model.logits(seq, sem)
        _, eeg_loss = loss_ntp(seq, model, sem)
    s, _ = seq.spans["eeg"]
    row = logits.data[s - 1]
    log_probs = row - (np.log(np.sum(np.exp(row - row.max()))) + row.max())
    assert abs(eeg_loss.data + log_probs[seq.ids[s]]) < 1e-9


def test_sft_requires_answer_span(rng):
    model = make_backbone()
    seq, sem = demo_sequence(rng)
    with pytest.raises(AssemblyError):
        loss_sft(seq, model, Tensor(sem))


def test_cpt_arithmetic():
    with Graph():
        terms = [Tensor(np.float64(v)) for v in (1.0, 2.0, 0.5)]
        total = loss_cpt(*terms, lambda_orth=0.1)
        plain = loss_cpt(*terms, lambda_orth=0.0)
    assert abs(total.data - 3.05) < 1e-12
    assert abs(plain.data - 3.0) < 1e-12


# ---------------------------------------------------------------------------
# reconstruction loss
# ---------------------------------------------------------------------------


def test_dsha_loss_zero_on_perfect_reconstruction(rng):
    x = rng.standard_normal((3, 8))
    f = rng.standard_normal((3, 5))
    h = rng.standard_normal((3, 4))
    with Graph():
        loss = loss_dsha(
            x, Tensor(x.copy()), f, Tensor(f.copy()), Tensor(h.copy()), Tensor(h.copy()), beta=0.25
        )
    assert loss.data == 0.0


def test_dsha_loss_unit_time_shift(rng):
    x = rng.standard_normal((3, 8))
    f = rng.standard_normal((3, 5))
    h = rng.standard_normal((3, 4))
    with Graph():
        loss = loss_dsha(
            x, Tensor(x + 1.0), f, Tensor(f.copy()), Tensor(h.copy()), Tensor(h.copy()), beta=0.25
        )
    assert abs(loss.data - 1.0) < 1e-12


def test_codebook_gradient_comes_only_from_alignment_term(rng):
    cfg = QuantizerConfig(num_codes=6, code_dim=4, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(cfg, embed_dim=4, rng=np.random.default_rng(11))
    h = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    with Graph():
        z_q = ad.take(quant.codebook, quant.quantize_rows(h.data))
        full = quant_loss(h, z_q, beta=0.25)
        grads_full = backward(full, wrt=[quant.codebook])
    with Graph():
        z_q = ad.take(quant.codebook, quant.quantize_rows(h.data))
        diff = ad.sub(h, oracles.detach(z_q))
        commit_only = ad.mul(oracles.mean(ad.mul(diff, diff)), 0.25)
        grads_commit = backward(commit_only, wrt=[quant.codebook])
    assert np.abs(grads_full[quant.codebook]).max() > 0
    assert np.all(grads_commit[quant.codebook] == 0.0)


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------


def test_fresh_adapter_keeps_forward_bit_exact(rng):
    model = make_backbone(seed=12)
    seq, sem = demo_sequence(rng)
    with Graph():
        before = model.logits(seq, Tensor(sem)).data.copy()
    model.apply_lora(rank=2, alpha=4.0, rng=np.random.default_rng(13))
    with Graph():
        after = model.logits(seq, Tensor(sem)).data
    np.testing.assert_array_equal(before, after)


def test_rank_one_adapter_outer_product():
    from eeglm.nn import Linear

    layer = Linear(4, 3, np.random.default_rng(0))
    layer.attach_lora(rank=1, alpha=2.0, rng=np.random.default_rng(1))
    layer.lora_a.data = np.array([[1.0, 0.0, 0.0, 0.0]])
    layer.lora_b.data = np.array([[5.0], [0.0], [0.0]])
    effective = layer.w.data + layer._lora_scale * (layer.lora_b.data @ layer.lora_a.data)
    delta = effective - layer.w.data
    expected = np.zeros((3, 4))
    expected[0, 0] = 2.0 * 5.0
    np.testing.assert_allclose(delta, expected, atol=1e-15)


def test_training_step_moves_only_adapter_parameters(rng):
    model = make_backbone(seed=14)
    model.apply_lora(rank=2, alpha=4.0, rng=np.random.default_rng(15))
    seq, sem = demo_sequence(rng)
    trainable = {n: p for n, p in model.named_parameters().items() if p.requires_grad}
    assert set(trainable) == set(adapter_parameters(model))
    frozen_before = {k: v.data.copy() for k, v in model.named_parameters().items()}
    opt = AdamW(trainable, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    # Two steps: lora_a has zero gradient while lora_b is still at its zero
    # init, so it only starts moving once lora_b is nonzero.
    for _ in range(2):
        with Graph():
            text_loss, eeg_loss = loss_ntp(seq, model, Tensor(sem))
            grads = backward(ad.add(text_loss, eeg_loss), wrt=list(trainable.values()))
        opt.step({k: grads[v] for k, v in trainable.items()}, lr=0.1)
    after = model.named_parameters()
    for name, arr in frozen_before.items():
        if name in trainable:
            assert not np.array_equal(after[name].data, arr)
        else:
            np.testing.assert_array_equal(after[name].data, arr)


@pytest.mark.usefixtures("float64")
def test_merge_adapters_preserves_forward(rng):
    model = make_backbone(seed=16)
    model.apply_lora(rank=2, alpha=4.0, rng=np.random.default_rng(17))
    for name, p in adapter_parameters(model).items():
        p.data = 0.01 * np.random.default_rng(18).standard_normal(p.data.shape)
    seq, sem = demo_sequence(rng)
    with Graph():
        before = model.logits(seq, Tensor(sem)).data.copy()
    model.merge_adapters()
    assert not adapter_parameters(model)
    with Graph():
        after = model.logits(seq, Tensor(sem)).data
    np.testing.assert_allclose(after, before, atol=1e-12)


# ---------------------------------------------------------------------------
# logits on the rows a loss reads
# ---------------------------------------------------------------------------


def _linear_chain(layer, x):
    return ad.add(matmul(x, transpose(layer.w)), layer.b)


def _attention_chain(attn, x):
    t, e = x.shape
    h = attn.n_heads
    dh = e // h

    def split(y):
        return transpose(ad.reshape(y, (t, h, dh)), (1, 0, 2))

    q, k, v = (split(_linear_chain(lin, x)) for lin in (attn.wq, attn.wk, attn.wv))
    scores = ad.mul(matmul(q, transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    weights = softmax(ad.add(scores, np.triu(np.full((t, t), -1e9), k=1)), axis=-1)
    mixed = ad.reshape(transpose(matmul(weights, v), (1, 0, 2)), (t, e))
    return _linear_chain(attn.wo, mixed)


def _norm_chain(ln, x):
    return ad.layer_norm(x, ln.gamma, ln.beta, ln.eps)


def unfused_logits(model, seq, sem):
    """The full-row forward as a chain of unfused ops, every position."""
    x = model.embed_sequence(seq, sem)
    for block in model.blocks:
        x = ad.add(x, _attention_chain(block.attn, _norm_chain(block.ln1, x)))
        hidden = ad.gelu(_linear_chain(block.ffn.fc1, _norm_chain(block.ln2, x)))
        x = ad.add(x, _linear_chain(block.ffn.fc2, hidden))
    return matmul(_norm_chain(model.ln_f, x), transpose(model.head.w))


def test_logits_without_rows_equal_the_unfused_chain_bit_for_bit(rng):
    model = make_backbone(seed=20)
    seq, sem = demo_sequence(rng, answer=True)
    with Graph():
        fused = model.logits(seq, Tensor(sem)).data
        chain = unfused_logits(model, seq, Tensor(sem)).data
    assert np.array_equal(fused, chain)


@pytest.mark.usefixtures("float64")
def test_logits_on_rows_equal_those_rows_of_the_full_logits(rng):
    model = make_backbone(seed=21)
    seq, sem = demo_sequence(rng, answer=True)
    sem = Tensor(sem)
    rows = np.array([seq.length - 2, 0, 5, 6, 11])
    with Graph():
        full = model.logits(seq, sem).data
        part = model.logits(seq, sem, rows=rows).data
    assert part.shape == (rows.size, VOCAB.v_total)
    np.testing.assert_allclose(part, full[rows], rtol=0, atol=1e-12)
    # the last block's attention weights hold one row per query it computed
    spy = model.blocks[-1].attn = AttentionSpy(model.blocks[-1].attn)
    with Graph():
        one = model.logits(seq, sem, rows=[7]).data
    np.testing.assert_allclose(one, full[[7]], rtol=0, atol=1e-12)
    assert [w.shape for w in spy.weights] == [(CFG.n_heads, 1, seq.length)]


def test_logits_rows_outside_the_sequence_rejected(rng):
    model = make_backbone()
    seq, sem = demo_sequence(rng)
    for bad in ([seq.length], [-1], [[0, 1]]):
        with pytest.raises(ShapeError, match="logit rows"):
            with Graph():
                model.logits(seq, Tensor(sem), rows=bad)


def _values_and_grads(fn, wrt):
    """The three span losses of `fn` and the gradients of their sum."""
    with Graph():
        text, eeg, answer = fn()
        grads = backward(ad.add(ad.add(text, eeg), answer), wrt=list(wrt.values()))
    return [float(v.data) for v in (text, eeg, answer)], {n: grads[p] for n, p in wrt.items()}


@pytest.mark.usefixtures("float64")
def test_row_losses_match_a_full_row_reference(rng):
    model = make_backbone(seed=22)
    model.apply_lora(rank=2, alpha=4.0, rng=np.random.default_rng(23))
    for p in adapter_parameters(model).values():
        p.data[...] = 0.1 * rng.standard_normal(p.data.shape)
    for p in model.named_parameters().values():
        p.requires_grad = True
    seq, sem = demo_sequence(rng, answer=True)
    sem = Tensor(sem, requires_grad=True)

    def reference():
        logits = model.logits(seq, sem)
        return [oracles.span_nll(logits, seq, span) for span in ("text", "eeg", "answer")]

    def rows_path():
        return [*loss_ntp(seq, model, sem), loss_sft(seq, model, sem)]

    wrt = {**model.named_parameters(), "sem": sem}  # every parameter is trainable here
    (ref_vals, ref_grads), (vals, grads) = (
        _values_and_grads(fn, wrt) for fn in (reference, rows_path)
    )
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-12, atol=0)
    # relative to the largest gradient: some are zero up to rounding (a key bias)
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for name, g in ref_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * scale, name
    assert np.abs(ref_grads["blocks.1.attn.wq.w"]).max() > 0


def test_span_nll_rejects_logits_of_another_row_count(rng):
    model = make_backbone()
    seq, sem = demo_sequence(rng)
    with Graph():
        logits = model.logits(seq, Tensor(sem), rows=[1, 2])
        with pytest.raises(ShapeError, match="logit rows"):
            span_nll(logits, seq, "eeg")


@pytest.mark.usefixtures("float64")
def test_two_block_backbone_gradients_through_the_rows_path(rng):
    cfg = BackboneConfig(
        vocab=VocabSpec(v_text=10, n_codes=5),
        n_layers=2, embed_dim=8, n_heads=2, ffn_mult=2, max_len=24, sem_dim=4,
    )
    model = ToyBackbone(cfg, np.random.default_rng(24))
    seq = assemble_sequence(
        [1, 2, 3], 2, [0, 3, 1], cfg.vocab, instruction_ids=[4, 5], answer_ids=[6, 7]
    )
    sem = Tensor(rng.standard_normal((2, 4)))
    params = [p for p in model.named_parameters().values() if p.requires_grad]

    def loss_fn(_):
        text_loss, eeg_loss = loss_ntp(seq, model, sem)
        return ad.add(ad.add(text_loss, eeg_loss), loss_sft(seq, model, sem))

    assert check_directional(loss_fn, params, rng) < 1e-4
