"""Release gate: ten property- and oracle-based criteria over the full pipeline.

Each test prints one `[k/10] name: measured values -> PASS|FAIL` line (visible
under `pytest -s`) and fails loudly if its stated tolerance is not met.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from eeglm import autodiff as ad
from eeglm.autodiff import Graph, Tensor, backward
from eeglm.backbone import BackboneConfig, ToyBackbone
from eeglm.config import resolve_config
from eeglm.encoder import CsaBlock, DualStreamEncoder, EncoderConfig, TemporalEmbedder
from eeglm.errors import ConfigError
from eeglm.losses import loss_ntp, loss_sft
from eeglm.metrics import (
    EvalBatch,
    auc_pr,
    auroc,
    balanced_accuracy,
    cohens_kappa,
    weighted_f1,
)
from eeglm.optim import AdamW
from eeglm.profiler import (
    TaskMeta,
    build_prompt,
    extract_features,
    generate_profile,
    parse_profile,
    spectral_stats,
    verbalize,
)
from eeglm.profiler import StubClient
from eeglm.quantizer import QuantizerConfig, VectorQuantizer, nearest_indices
from eeglm.refiner import RefinerConfig, SemanticRefiner
from eeglm.sequences import VocabSpec, assemble_sequence
from eeglm.signal_io import (
    FREQ_BANDS,
    Recording,
    bandpass_notch,
    dft_target,
    preprocess,
    robust_scale,
)
from eeglm.synth import make_dataset, make_recording
from eeglm.topology import build_hierarchy, builtin_montage, synthetic_montage
from eeglm.training import STAGE_RUNNERS

import recipe
from gradcheck import check_directional
from oracles import broadcast_level, pool_level
from test_metrics import (
    oracle_auc_pr_sweep,
    oracle_auroc_trapezoid,
    oracle_bacc,
    oracle_kappa,
    oracle_weighted_f1,
)
from test_profiler import SAMPLE_BODY
from test_losses import sliced_span_nll
from test_quantizer import quant_loss


def gate(idx: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{idx}/10] {name}: {detail} -> {verdict}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient suite: every trainable module against finite differences
# ---------------------------------------------------------------------------

ENC_TOY = EncoderConfig(
    embed_dim=8, n_heads=2, ffn_mult=2, patch_len=40, max_patches=8, montage=None
)
N_CASES = 20
GRAD_TOL = 1e-4


def _sq(out):
    return ad.sum_(ad.mul(out, out))


def _case_patch_embedder(seed):
    rng = np.random.default_rng(seed)
    emb = TemporalEmbedder(ENC_TOY, rng)
    patches = rng.uniform(-1, 1, (2, int(rng.integers(1, 4)), 40))
    params = list(emb.named_parameters().values())
    return check_directional(lambda _: _sq(emb(patches)), params, rng)


def _case_cross_scale_attention(seed):
    rng = np.random.default_rng(seed)
    block = CsaBlock(ENC_TOY, rng)
    q = Tensor(rng.standard_normal((int(rng.integers(1, 5)), 8)), requires_grad=True)
    kv = Tensor(rng.standard_normal((int(rng.integers(1, 6)), 8)), requires_grad=True)
    params = list(block.named_parameters().values()) + [q, kv]
    return check_directional(lambda _: _sq(block(q, kv)), params, rng)


def _make_encoder(seed):
    rng = np.random.default_rng(seed)
    hier = build_hierarchy(synthetic_montage(3))
    enc = DualStreamEncoder(ENC_TOY, rng, hierarchy=hier)
    x = rng.uniform(-1, 1, (3, 2, 40))
    return enc, x, rng


def _case_dual_stream(seed):
    enc, x, rng = _make_encoder(seed)
    params = [p for p in enc.named_parameters().values() if p.requires_grad]
    return check_directional(lambda _: _sq(enc(x)), params, rng)


def _case_fusion(seed):
    enc, x, rng = _make_encoder(seed)
    params = list(enc.fuse_proj.named_parameters("fuse").values())
    return check_directional(lambda _: _sq(enc(x)), params, rng)


def _case_quantizer_bridge(seed):
    rng = np.random.default_rng(seed)
    q_cfg = QuantizerConfig(num_codes=8, code_dim=4, beta=0.25, revival_epochs=2)
    quant = VectorQuantizer(q_cfg, embed_dim=6, rng=rng)
    x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    params = list(quant.down.named_parameters("down").values())
    params += list(quant.up.named_parameters("up").values())
    params.append(x)
    err = check_directional(lambda _: _sq(quant.up(quant.down(x))), params, rng)
    # the codebook/commitment term uses stop-gradients, so its analytic
    # gradient is checked against the closed form instead of differences
    h = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    z = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    with Graph():
        loss = quant_loss(h, z, beta=0.25)
        grads = backward(loss, wrt=[h, z])
    n = h.data.size
    err = max(err, float(np.abs(grads[h] - 2 * 0.25 * (h.data - z.data) / n).max()))
    err = max(err, float(np.abs(grads[z] - 2 * (z.data - h.data) / n).max()))
    return err


REF_TOY = RefinerConfig(n_experts=2, embed_dim=8, n_heads=2, ffn_mult=2)


def _case_refiner_calibrate(seed):
    rng = np.random.default_rng(seed)
    ref = SemanticRefiner(REF_TOY, rng)
    h_text = Tensor(rng.standard_normal((int(rng.integers(1, 5)), 8)), requires_grad=True)
    params = [p for p in ref.named_parameters().values() if p.requires_grad] + [h_text]
    return check_directional(lambda _: _sq(ref.calibrate(h_text)), params, rng)


def _case_refiner_aggregate(seed):
    rng = np.random.default_rng(seed)
    ref = SemanticRefiner(REF_TOY, rng)
    q_in = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
    z_q = rng.standard_normal((int(rng.integers(2, 7)), 8))
    params = [p for p in ref.named_parameters().values() if p.requires_grad] + [q_in]
    return check_directional(lambda _: _sq(ref.aggregate(q_in, z_q)[0]), params, rng)


def _case_refiner_project(seed):
    rng = np.random.default_rng(seed)
    ref = SemanticRefiner(REF_TOY, rng)
    o_star = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
    params = [p for p in ref.named_parameters().values() if p.requires_grad] + [o_star]
    return check_directional(lambda _: _sq(ref.project(o_star)), params, rng)


def _toy_backbone(seed, rng):
    cfg = BackboneConfig(
        vocab=VocabSpec(v_text=10, n_codes=5),
        n_layers=1, embed_dim=8, n_heads=2, ffn_mult=2, max_len=24, sem_dim=4,
    )
    model = ToyBackbone(cfg, np.random.default_rng(seed))
    n_text = int(rng.integers(1, 4))
    n_eeg = int(rng.integers(1, 4))
    text = rng.integers(1, 10, size=n_text).tolist()
    sem = Tensor(rng.standard_normal((2, 4)))
    seq = assemble_sequence(text, 2, rng.integers(0, 5, size=n_eeg).tolist(), cfg.vocab)
    return model, seq, sem


def _case_backbone(seed):
    rng = np.random.default_rng(seed)
    model, seq, sem = _toy_backbone(seed, rng)
    params = [p for p in model.named_parameters().values() if p.requires_grad]

    def fn(_):
        text_l, eeg_l = loss_ntp(seq, model, sem)
        return ad.add(text_l, eeg_l)

    return check_directional(fn, params, rng)


def _case_lora(seed):
    rng = np.random.default_rng(seed)
    model, seq, sem = _toy_backbone(seed, rng)
    model.apply_lora(rank=2, alpha=4.0, rng=np.random.default_rng(seed + 1))
    adapters = {n: t for n, t in model.named_parameters().items() if "lora_" in n}
    for t in adapters.values():  # move off the zero init so both factors matter
        t.data = 0.1 * rng.standard_normal(t.data.shape)

    def fn(_):
        text_l, eeg_l = loss_ntp(seq, model, sem)
        return ad.add(text_l, eeg_l)

    return check_directional(fn, list(adapters.values()), rng)


GRAD_SUITES = (
    ("patch-embedder", _case_patch_embedder),
    ("cross-scale-attention", _case_cross_scale_attention),
    ("dual-stream-encoder", _case_dual_stream),
    ("stream-fusion", _case_fusion),
    ("quantizer-bridge", _case_quantizer_bridge),
    ("refiner-calibrate", _case_refiner_calibrate),
    ("refiner-aggregate", _case_refiner_aggregate),
    ("refiner-project", _case_refiner_project),
    ("backbone", _case_backbone),
    ("lora-adapters", _case_lora),
)


@pytest.mark.usefixtures("float64")
def test_01_gradient_suite():
    t0 = time.time()
    worst = {}
    for name, case in GRAD_SUITES:
        worst[name] = max(case(seed) for seed in range(N_CASES))
    elapsed = time.time() - t0
    peak = max(worst.values())
    ok = peak < GRAD_TOL and elapsed < 300.0
    gate(
        1, "gradient suite",
        ok,
        f"{len(GRAD_SUITES)} modules x {N_CASES} cases, worst rel err "
        f"{peak:.2e} (tol {GRAD_TOL:.0e}), {elapsed:.1f}s (limit 300s); "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )


# ---------------------------------------------------------------------------
# 2. quantizer against exhaustive nearest-neighbor search
# ---------------------------------------------------------------------------


def test_02_quantizer_oracle():
    rng = np.random.default_rng(202)
    codebook = rng.standard_normal((64, 8))
    codebook[41] = codebook[7]  # engineered tie: must resolve to index 7
    rows = rng.standard_normal((1000, 8))
    got = nearest_indices(rows, codebook)
    dists = ((rows[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)
    want = dists.argmin(axis=1)  # argmin returns the lowest tied index
    agreement = float(np.mean(got == want))
    idem = np.array_equal(nearest_indices(codebook[got], codebook), got)
    ties = np.array_equal(nearest_indices(codebook[[7, 41]], codebook), [7, 7])
    ok = agreement == 1.0 and idem and ties
    gate(
        2, "quantizer nearest-neighbor oracle",
        ok,
        f"1000 rows vs exhaustive search: agreement {agreement:.3f}, "
        f"idempotent {idem}, lowest-index ties {ties}",
    )


# ---------------------------------------------------------------------------
# 3. orthogonality penalty behavior
# ---------------------------------------------------------------------------


def test_03_orthogonality_behavior():
    single = SemanticRefiner(
        RefinerConfig(n_experts=1, embed_dim=8, n_heads=2, ffn_mult=2),
        np.random.default_rng(0),
    )
    with Graph():
        v1 = float(single.orth_loss().data)

    pair = SemanticRefiner(REF_TOY, np.random.default_rng(0))
    pair.q_lat.data = np.eye(2, 8)
    with Graph():
        v2 = float(pair.orth_loss().data)

    rng = np.random.default_rng(303)
    base = rng.standard_normal((2, 8))
    scaled = []
    for c in (1.0, 2.0, -3.5, 1e-3):
        pair.q_lat.data = c * base
        with Graph():
            scaled.append(float(pair.orth_loss().data))
    spread = max(scaled) - min(scaled)

    drive = SemanticRefiner(
        RefinerConfig(n_experts=4, embed_dim=16, n_heads=2, ffn_mult=2),
        np.random.default_rng(13),
    )
    opt = AdamW({"q_lat": drive.q_lat}, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    for _ in range(500):
        with Graph():
            grads = backward(drive.orth_loss(), wrt=[drive.q_lat])
        opt.step({"q_lat": grads[drive.q_lat]}, lr=0.02)
    q = drive.q_lat.data
    gram = q @ q.T / np.sum(q * q)
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))

    ok = v1 < 1e-12 and abs(v2 - np.sqrt(0.5)) < 1e-9 and spread < 1e-12 and off < 1e-2
    gate(
        3, "orthogonality penalty",
        ok,
        f"1 expert -> {v1:.1e}; 2 orthonormal -> {v2:.12f} (want sqrt(0.5)); "
        f"scale spread {spread:.1e}; off-diagonal after 500 steps {off:.2e} (tol 1e-2)",
    )


# ---------------------------------------------------------------------------
# 4. signal-chain oracles
# ---------------------------------------------------------------------------


def test_04_signal_oracles():
    fs, seconds = 500.0, 10.0
    t = np.arange(int(fs * seconds)) / fs
    alpha_rec = Recording(channels=("A",), fs=fs, data=np.sin(2 * np.pi * 10.0 * t)[None, :])
    out = preprocess(alpha_rec)
    stats = spectral_stats(out.data[0][None], out.fs)[0]
    total = sum(stats.band_powers.values())
    alpha_share = stats.band_powers["alpha"] / total

    t_mains = np.arange(int(200.0 * 60.0)) / 200.0
    mains = Recording(
        channels=("A",), fs=200.0, data=np.sin(2 * np.pi * 50.0 * t_mains)[None, :]
    )
    notched = bandpass_notch(mains, 0.1, 75.0, 50.0)
    rms_ratio = float(
        np.sqrt(np.mean(notched.data**2)) / np.sqrt(np.mean(mains.data**2))
    )

    rng = np.random.default_rng(404)
    mixed = rng.standard_normal((3, 400)) * 7.5 + 2.0
    mixed[2] = 4.0  # zero-IQR channel
    scaled = robust_scale(Recording(channels=("A", "B", "C"), fs=200.0, data=mixed))
    q1, med, q3 = np.quantile(scaled.data[:2], [0.25, 0.5, 0.75], axis=1)
    med_err = float(np.abs(med).max())
    iqr_err = float(np.abs((q3 - q1) - 1.0).max())
    degenerate_ok = bool(
        np.all(np.isfinite(scaled.data)) and np.all(scaled.data[2] == 0.0)
    )

    x = rng.standard_normal((2, 3, 200))
    mags = dft_target(x)
    # one-sided Parseval for even window: DC and Nyquist once, middle twice
    lhs = mags[..., 0] ** 2 + mags[..., -1] ** 2 + 2 * np.sum(mags[..., 1:-1] ** 2, axis=-1)
    rhs = 200.0 * np.sum(x**2, axis=-1)
    parseval = float(np.max(np.abs(lhs - rhs) / rhs))

    ok = (
        alpha_share > 0.95
        and rms_ratio < 0.10
        and med_err < 1e-12
        and iqr_err < 1e-12
        and degenerate_ok
        and parseval < 1e-9
    )
    gate(
        4, "signal-chain oracles",
        ok,
        f"alpha share {alpha_share:.4f} (>0.95); 50 Hz RMS ratio {rms_ratio:.4f} "
        f"(<0.10); median err {med_err:.1e}, IQR err {iqr_err:.1e}, zero-IQR safe "
        f"{degenerate_ok}; Parseval rel err {parseval:.1e} (<1e-9)",
    )


# ---------------------------------------------------------------------------
# 5. first-stage convergence on a toy corpus
# ---------------------------------------------------------------------------


def _stage_overrides(train_dir, montage):
    return {
        "data": {"train_dir": str(train_dir), "montage": montage},
        "encoder": {"ffn_mult": 2, "max_patches": 8},
        "quantizer": {"num_codes": 64, "code_dim": 8},
        "refiner": {"n_experts": 2},
        "backbone": {
            "v_text": 128, "n_layers": 1, "embed_dim": 32, "n_heads": 2,
            "ffn_mult": 2, "max_len": 224,
        },
        "optimizer": {"lr": 3e-3},
        "schedule": {"warmup_steps": 20},
        "train": {"epochs": 20},
    }


def test_05_first_stage_convergence(tmp_path):
    data = tmp_path / "data"
    make_dataset(data, n_per_class=8, montage="synthetic-2", seconds=2.0, seed=3)
    cfg = resolve_config(None, [{
        "seed": 5,
        "data": {"train_dir": str(data), "montage": "synthetic-2"},
        "quantizer": {"num_codes": 64, "code_dim": 8},
        "train": {"epochs": 20},
        "optimizer": {"lr": 3e-3, "recon_lr_scale": 50.0},
        "schedule": {"warmup_steps": 20},
    }])
    t0 = time.time()
    summary = STAGE_RUNNERS["vq"](cfg, tmp_path / "run")
    elapsed = time.time() - t0
    ratio = summary["final_over_first"]
    perplexity = summary["codebook_health"]["perplexity"]
    ok = ratio < 0.25 and perplexity > 4.0 and elapsed < 600.0
    gate(
        5, "first-stage convergence",
        ok,
        f"2-channel corpus, 20 epochs: final/first loss {ratio:.3f} (<0.25), "
        f"codebook perplexity {perplexity:.1f} (>4), {elapsed:.1f}s (limit 600s)",
    )


# ---------------------------------------------------------------------------
# 6. loss-masking contracts and per-step bookkeeping
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("float64")
def test_06_loss_masking(tmp_path):
    rng = np.random.default_rng(606)
    cfg_bb = BackboneConfig(
        vocab=VocabSpec(v_text=12, n_codes=6),
        n_layers=1, embed_dim=16, n_heads=2, ffn_mult=2, max_len=32, sem_dim=4,
    )
    model = ToyBackbone(cfg_bb, np.random.default_rng(6))
    sem = Tensor(rng.standard_normal((3, 4)))
    seq = assemble_sequence(
        [1, 2, 3], 3, [0, 4], cfg_bb.vocab, instruction_ids=[5, 6], answer_ids=[7]
    )

    with Graph():
        logits = model.logits(seq, sem)
        pretrain = ad.add(sliced_span_nll(logits, seq, "text"), sliced_span_nll(logits, seq, "eeg"))
        grads = backward(pretrain, wrt=[logits])
    g = grads[logits]
    sem_s, sem_e = seq.spans["sem"]
    sem_rows_zero = bool(np.all(g[sem_s - 1:sem_e] == 0.0))

    with Graph():
        logits = model.logits(seq, sem)
        answer_only = sliced_span_nll(logits, seq, "answer")
        grads = backward(answer_only, wrt=[logits])
    g = grads[logits]
    ans_s, ans_e = seq.spans["answer"]
    mask = np.ones(len(seq.ids), dtype=bool)
    mask[ans_s - 1:ans_e - 1] = False
    answer_rows_only = bool(
        np.all(g[mask] == 0.0) and np.all(np.abs(g[~mask]).sum(axis=1) > 0)
    )

    model.head.w.data = np.zeros_like(model.head.w.data)
    with Graph():
        text_l, eeg_l = loss_ntp(seq, model, sem)
        sft_l = loss_sft(seq, model, sem)
    expected = float(np.log(cfg_bb.vocab.v_total))
    uniform_err = max(
        abs(float(v.data) - expected) for v in (text_l, eeg_l, sft_l)
    )

    data = tmp_path / "data"
    make_dataset(data, n_per_class=2, classes=("class-a", "class-b"),
                 montage="synthetic-2", seconds=2.0, seed=6)
    over = _stage_overrides(data, "synthetic-2")
    over["quantizer"] = {"num_codes": 8, "code_dim": 4}
    over["train"] = {"epochs": 1}
    over["schedule"] = {"warmup_steps": 2}
    cfg = resolve_config(None, [over])
    STAGE_RUNNERS["vq"](cfg, tmp_path / "vq")
    cfg["stage"] = "cpt"
    cfg["train"]["init_from"] = str(tmp_path / "vq" / "checkpoints" / "epoch_0000")
    cfg["train"]["epochs"] = 2
    STAGE_RUNNERS["cpt"](cfg, tmp_path / "cpt")
    lam = cfg["train"]["lambda_orth"]
    worst_row = 0.0
    with open(tmp_path / "cpt" / "metrics.csv", newline="") as f:
        import csv as _csv

        rows = list(_csv.DictReader(f))
    for row in rows:
        dev = abs(
            float(row["loss_total"])
            - (float(row["loss_text"]) + float(row["loss_eeg"]) + lam * float(row["loss_orth"]))
        )
        worst_row = max(worst_row, dev)

    ok = (
        sem_rows_zero
        and answer_rows_only
        and uniform_err < 1e-9
        and len(rows) == 8
        and worst_row < 1e-9
    )
    gate(
        6, "loss masking and bookkeeping",
        ok,
        f"sem-target rows zero {sem_rows_zero}; answer-only rows {answer_rows_only}; "
        f"uniform-logit err {uniform_err:.1e} (<1e-9); per-step identity dev "
        f"{worst_row:.1e} over {len(rows)} logged steps (<1e-9)",
    )


# ---------------------------------------------------------------------------
# 7. end-to-end supervised fine-tuning through the command line
# ---------------------------------------------------------------------------


def test_07_end_to_end_sft(quick_start):
    # the README quick start, run by the session fixture
    assert quick_start.proc.returncode == 0, quick_start.proc.stderr[-2000:]
    _, _, sft = recipe.training()
    sft_epochs = int(recipe.value(sft, "--epochs"))
    report = json.loads((quick_start.out / "report" / "report.json").read_text())
    bacc = report["metrics"]["balanced_accuracy"]
    elapsed = quick_start.seconds
    ok = bacc >= 0.90 and sft_epochs <= 30 and elapsed < 900.0
    gate(
        7, "end-to-end fine-tuning",
        ok,
        f"3-class task, {sft_epochs} fine-tuning epochs: balanced accuracy "
        f"{bacc:.3f} (>=0.90), metrics {report['metrics']}, {elapsed:.1f}s (limit 900s)",
    )


# ---------------------------------------------------------------------------
# 8. metrics against brute-force recomputation and hand values
# ---------------------------------------------------------------------------


def test_08_metrics_oracle():
    worst = 0.0
    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(12, 100))
        y_true = rng.integers(0, 2, size=n)
        y_true[:2] = [0, 1]
        y_pred = rng.integers(0, 2, size=n)
        scores = np.round(rng.random(n), 2)
        batch = EvalBatch(y_true, y_pred, scores)
        pairs = (
            (balanced_accuracy(batch), oracle_bacc(y_true, y_pred)),
            (cohens_kappa(batch), oracle_kappa(y_true, y_pred)),
            (weighted_f1(batch), oracle_weighted_f1(y_true, y_pred)),
            (auroc(batch), oracle_auroc_trapezoid(y_true, scores)),
            (auc_pr(batch), oracle_auc_pr_sweep(y_true, scores)),
        )
        worst = max(worst, max(abs(a - b) for a, b in pairs))

    y_true = np.array([0] * 10 + [1] * 10)
    y_pred = y_true.copy()
    y_pred[0] = 1
    y_pred[10:12] = 0  # per-class recalls 0.9 and 0.8
    hand_bacc = balanced_accuracy(EvalBatch(y_true, y_pred))
    pairwise = EvalBatch(
        np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1]),
        np.array([0.1, 0.4, 0.35, 0.8]),
    )
    hand_auroc = auroc(pairwise)
    agree = np.array([0, 1, 2, 1, 0])
    hand_kappa = cohens_kappa(EvalBatch(agree, agree.copy()))
    hands_ok = (
        abs(hand_bacc - 0.85) < 1e-12 and hand_auroc == 0.75 and hand_kappa == 1.0
    )

    ok = worst < 1e-12 and hands_ok
    gate(
        8, "metrics oracle",
        ok,
        f"100 random batches x 5 metrics, worst |diff| {worst:.1e} (<1e-12); "
        f"hand values B-Acc {hand_bacc}, AUROC {hand_auroc}, kappa {hand_kappa}",
    )


# ---------------------------------------------------------------------------
# 9. profiler determinism, label-leak guard, sample-body parsing
# ---------------------------------------------------------------------------


def test_09_profiler_determinism_and_safety():
    montage = synthetic_montage(2)
    rec = make_recording("class-b", montage.labels, np.random.default_rng(9), seconds=2.0)
    hier = build_hierarchy(montage)
    meta = TaskMeta(
        sample_name="sample-9", dataset_name="synthetic",
        task_logic="Separate rhythmic activity patterns.",
        num_channels=rec.n_channels, num_samples=rec.n_samples,
    )
    outputs = []
    for _ in range(2):
        prompt = build_prompt(meta, verbalize(extract_features(rec, hier)),
                              ("class-a", "class-b"))
        result = generate_profile(prompt, StubClient())
        outputs.append((prompt, result.profile.as_tuple()))
    deterministic = outputs[0] == outputs[1]

    leaky = TaskMeta(
        sample_name="sample-9", dataset_name="synthetic",
        task_logic="Pick class-a out of the recordings.",
        num_channels=2, num_samples=400,
    )
    try:
        build_prompt(leaky, "features", ("class-a", "class-b"))
        guard = False
    except ConfigError:
        guard = True

    profile = parse_profile(json.dumps(SAMPLE_BODY))
    fields = profile.to_dict()
    parsed = len(fields) == 6 and all(v.strip() for v in fields.values())

    ok = deterministic and guard and parsed
    gate(
        9, "profiler determinism and safety",
        ok,
        f"byte-identical prompt+profile {deterministic}; leak guard {guard}; "
        f"sample body -> {len(fields)} populated fields",
    )


# ---------------------------------------------------------------------------
# 10. hierarchy pooling/broadcast invariants
# ---------------------------------------------------------------------------


def test_10_topology_invariants():
    hier = build_hierarchy(builtin_montage())
    worst_idem, worst_refine = 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng([10, seed])
        x = rng.standard_normal((19, 3, 2))
        for level in range(1, 6):
            g = pool_level(x, hier, level)
            worst_idem = max(
                worst_idem,
                float(np.abs(pool_level(broadcast_level(g, hier, level), hier, level) - g).max()),
            )
        for k in range(1, 5):
            coarse = pool_level(x, hier, k)
            fine = pool_level(x, hier, k + 1)
            sizes = np.array([len(g) for g in hier.levels[k]], dtype=float)
            parent_of = {}
            lookup = {ch: gi for gi, grp in enumerate(hier.levels[k - 1]) for ch in grp}
            for fi, grp in enumerate(hier.levels[k]):
                parent_of[fi] = lookup[grp[0]]
            recomposed = np.zeros_like(coarse)
            weight = np.zeros(len(hier.levels[k - 1]))
            for fi, pi in parent_of.items():
                recomposed[pi] += sizes[fi] * fine[fi]
                weight[pi] += sizes[fi]
            recomposed /= weight[:, None, None]
            worst_refine = max(worst_refine, float(np.abs(recomposed - coarse).max()))
    ok = worst_idem < 1e-12 and worst_refine < 1e-12
    gate(
        10, "hierarchy pooling invariants",
        ok,
        f"50 random arrays x 5 levels: pool(broadcast) dev {worst_idem:.1e}, "
        f"refinement recomposition dev {worst_refine:.1e} (both <1e-12)",
    )
