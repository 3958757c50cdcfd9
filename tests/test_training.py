"""Stage runners: model wiring, metrics, checkpoints, and frozen-set contracts."""

from __future__ import annotations

import copy
import csv
import gc
import json
import os
import re
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import recipe
from eeglm import autodiff as ad, synth, training
from eeglm.checkpoint import load_checkpoint, save_checkpoint
from eeglm.config import parse_override, resolve_config
from eeglm.errors import ConfigError, DataError, MontageError, UsageError
from eeglm.optim import AdamW, cosine_schedule
from eeglm.quantizer import VectorQuantizer
from eeglm.signal_io import WORK_FS, Recording, preprocess
from eeglm.synth import make_dataset, make_recording, load_corpus
from eeglm.topology import get_montage
from eeglm.training import (
    CSV_COLUMNS,
    MetricsLogger,
    STAGE_RUNNERS,
    CptStage,
    SftStage,
    VqStage,
    balanced_order,
    build_model,
    find_latest_checkpoint,
    load_model,
    prepare_sequences,
)

TOY = {
    "data": {"montage": "synthetic-2", "classes": ["class-a", "class-b"]},
    "encoder": {"embed_dim": 8, "ffn_mult": 2, "max_patches": 8},
    "quantizer": {"num_codes": 8, "code_dim": 4},
    "refiner": {"n_experts": 2},
    "backbone": {
        "v_text": 64,
        "n_layers": 1,
        "embed_dim": 16,
        "n_heads": 2,
        "ffn_mult": 2,
        "max_len": 192,
    },
    "optimizer": {"lr": 3e-3},
    "schedule": {"warmup_steps": 2},
    "train": {"epochs": 2},
}


def toy_cfg(data_dir, **sections):
    over = copy.deepcopy(TOY)
    over["data"]["train_dir"] = str(data_dir)
    for sec, patch in sections.items():
        over.setdefault(sec, {}).update(patch)
    return resolve_config(None, [over])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    make_dataset(
        root, n_per_class=2, classes=("class-a", "class-b"),
        montage="synthetic-2", fs=200.0, seconds=2.0, seed=0,
    )
    return root


@pytest.fixture(scope="module")
def chain(tmp_path_factory, data_dir):
    """One vq -> cpt -> sft chain shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("runs")
    cfg_vq = toy_cfg(data_dir)
    STAGE_RUNNERS["vq"](cfg_vq, root / "vq")
    cfg_cpt = toy_cfg(data_dir)
    cfg_cpt["stage"] = "cpt"
    cfg_cpt["train"]["init_from"] = str(root / "vq" / "checkpoints" / "epoch_0001")
    STAGE_RUNNERS["cpt"](cfg_cpt, root / "cpt")
    cfg_sft = toy_cfg(data_dir)
    cfg_sft["stage"] = "sft"
    cfg_sft["train"]["init_from"] = str(root / "cpt" / "checkpoints" / "epoch_0001")
    STAGE_RUNNERS["sft"](cfg_sft, root / "sft")
    return root, cfg_vq, cfg_cpt, cfg_sft


def read_metrics(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


# -- model wiring -----------------------------------------------------------


def test_build_model_ties_bridge_dims(data_dir):
    model = build_model(toy_cfg(data_dir))
    code_dim = model.cfg["quantizer"]["code_dim"]
    assert model.refiner.cfg.embed_dim == code_dim
    assert model.backbone.cfg.sem_dim == code_dim
    assert model.embedder.embed_dim == code_dim
    assert model.vocab.v_text == 64
    assert model.vocab.n_codes == 8


def test_tokenize_recording_rejects_foreign_montage(data_dir):
    model = build_model(toy_cfg(data_dir))
    rec = Recording(channels=("A", "B"), fs=200.0, data=np.zeros((2, 400)))
    with pytest.raises(MontageError, match="do not match"):
        model.tokenize_recording(rec)


def _quick_start_recordings(quick_start, model) -> list[Recording]:
    """The quick start's 12 eval recordings with 3 s and 5 s recordings of its
    montage between them: 2, 3 and 5 patches."""
    assert quick_start.proc.returncode == 0, quick_start.proc.stderr[-2000:]
    recs = [rec for _, rec, _ in load_corpus(quick_start.out / "eval-data")]
    channels, rng = model.encoder.hierarchy.montage.labels, np.random.default_rng(3)
    for i, seconds in ((1, 3.0), (4, 5.0), (5, 3.0), (9, 3.0), (12, 5.0)):
        recs.insert(i, make_recording("class-b", channels, rng, seconds=seconds))
    return recs


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_tokenize_recordings_gives_each_recording_its_own_bits(quick_start, chunk):
    model, _ = load_model(quick_start.out / recipe.last_checkpoint("sft"))
    recs = _quick_start_recordings(quick_start, model)
    alone = [model.tokenize_recording(rec) for rec in recs]
    batched = [got for s in range(0, len(recs), chunk) for got in model.tokenize_recordings(recs[s : s + chunk])]
    assert len(batched) == len(alone) == 17
    for (tokens, z_q), (want_tokens, want_z_q) in zip(batched, alone):
        assert (tokens.channels, tokens.patches) == (want_tokens.channels, want_tokens.patches)
        assert tokens.indices.dtype == want_tokens.indices.dtype
        assert tokens.indices.tobytes() == want_tokens.indices.tobytes()
        assert (z_q.dtype, z_q.shape) == (want_z_q.dtype, want_z_q.shape)
        assert z_q.tobytes() == want_z_q.tobytes()


def test_tokenize_recordings_checks_every_montage_before_it_encodes(data_dir, monkeypatch):
    model = build_model(toy_cfg(data_dir))
    recs = [rec for _, rec, _ in load_corpus(data_dir)]
    recs.append(Recording(channels=("A", "B"), fs=200.0, data=np.zeros((2, 400))))
    monkeypatch.setattr(type(model.encoder), "__call__", None)
    with pytest.raises(MontageError, match="do not match"):
        model.tokenize_recordings(recs)


def test_prepare_sequences_supervised(data_dir):
    model = build_model(toy_cfg(data_dir))
    corpus = load_corpus(data_dir, classes=toy_cfg(data_dir)["data"]["classes"])
    prep = prepare_sequences(model, corpus, with_answer=True)
    assert [p.name for p in prep] == [f"sample_{i:04d}" for i in range(4)]
    for item in prep:
        s = item.seq.spans
        assert set(s) == {"text", "sem", "eeg", "instr", "answer"}
        assert s["sem"][1] - s["sem"][0] == 2  # one slot per expert
        assert s["eeg"][1] - s["eeg"][0] == 4  # 2 channels x 2 patches
        answer = item.seq.ids[s["answer"][0]:s["answer"][1]].tolist()
        assert answer == model.tokenizer.encode(item.label).tolist()
        assert item.h_text.shape[1] == 4
        assert item.z_q.shape == (4, 4)


def test_prepare_sequences_unsupervised_has_no_answer(data_dir):
    model = build_model(toy_cfg(data_dir))
    corpus = load_corpus(data_dir)
    prep = prepare_sequences(model, corpus, with_answer=False)
    assert set(prep[0].seq.spans) == {"text", "sem", "eeg"}


def test_load_corpus_label_errors(tmp_path, data_dir, monkeypatch):
    # the class check reads labels.csv and no recording
    monkeypatch.setattr(synth, "load_container", None)
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    classes = toy_cfg(data_dir)["data"]["classes"]
    original = (data / "labels.csv").read_text()
    header, first, *rest = original.splitlines()
    assert first.startswith("sample_0000,")
    (data / "labels.csv").write_text("\n".join([header, *rest]) + "\n")
    with pytest.raises(DataError, match="sample 'sample_0000' missing from labels.csv"):
        load_corpus(data, classes=classes)
    (data / "labels.csv").write_text("\n".join([header, "sample_0000,class-z", *rest]) + "\n")
    with pytest.raises(DataError, match="not in configured classes"):
        load_corpus(data, classes=classes)
    # without classes, labels are not checked
    assert load_corpus(data).labels[0] == "class-z"
    # a row whose container is gone: its sample would be left out silently
    (data / "labels.csv").write_text(original)
    assert rest[-1].startswith("sample_0003,")
    shutil.rmtree(data / "sample_0003")
    with pytest.raises(DataError, match=re.escape(
        f"label file {data / 'labels.csv'} names sample 'sample_0003' on line 5, "
        f"which has no container in {data}"
    )):
        load_corpus(data, classes=classes)
    assert len(load_corpus(data)) == 3


# -- metrics logger ---------------------------------------------------------


def test_metrics_logger_round_trip_exact(tmp_path):
    path = tmp_path / "metrics.csv"
    values = (1.0 / 3.0, 1e-17, 123456.789, 0.1 + 0.2, 2.5e-4)
    logger = MetricsLogger(path)
    logger.log(1, *values)
    logger.close()
    header, rows = read_metrics(path)
    assert header == list(CSV_COLUMNS)
    assert rows[0][0] == 1
    assert tuple(rows[0][1:]) == values  # repr round-trips doubles exactly


def test_metrics_logger_append_keeps_single_header(tmp_path):
    path = tmp_path / "metrics.csv"
    logger = MetricsLogger(path)
    logger.log(1, 1.0, 0.0, 1.0, 0.0, 1e-3)
    logger.close()
    logger = MetricsLogger(path, keep_through=1)
    logger.log(2, 0.5, 0.0, 0.5, 0.0, 1e-3)
    logger.close()
    header, rows = read_metrics(path)
    assert header == list(CSV_COLUMNS)
    assert [int(r[0]) for r in rows] == [1, 2]


# -- vq stage ---------------------------------------------------------------


def test_vq_run_dir_layout(chain):
    root, cfg_vq, _, _ = chain
    run = root / "vq"
    assert (run / "config.json").is_file()
    assert (run / "metrics.csv").is_file()
    assert (run / "artifacts" / "summary.json").is_file()
    assert (run / "checkpoints" / "epoch_0001" / "manifest.json").is_file()
    header, rows = read_metrics(run / "metrics.csv")
    assert header == list(CSV_COLUMNS)
    assert len(rows) == cfg_vq["train"]["epochs"] * 4
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    for _, total, text, eeg, orth, _ in rows:
        assert text == 0.0 and orth == 0.0 and eeg == total


def test_vq_loss_decreases(tmp_path, data_dir):
    cfg = toy_cfg(data_dir, train={"epochs": 6})
    summary = STAGE_RUNNERS["vq"](cfg, tmp_path / "run")
    avgs = summary["epoch_avg_loss"]
    assert summary["steps"] == 24
    assert avgs[-1] < avgs[0]
    assert summary["final_over_first"] == pytest.approx(avgs[-1] / avgs[0])
    health = summary["codebook_health"]
    assert health["perplexity"] >= 1.0
    assert 0 <= health["dead_entries"] < 8


@pytest.mark.parametrize("stage", ["vq", "cpt", "sft"])
def test_resume_continues_step_counter(tmp_path, chain, stage):
    _, cfg_vq, cfg_cpt, cfg_sft = chain
    cfg = copy.deepcopy({"vq": cfg_vq, "cpt": cfg_cpt, "sft": cfg_sft}[stage])
    run = tmp_path / "run"
    cfg["train"]["epochs"] = 2
    STAGE_RUNNERS[stage](cfg, run)
    cfg["train"]["epochs"] = 4
    STAGE_RUNNERS[stage](cfg, run, resume=True)
    _, rows = read_metrics(run / "metrics.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 17))
    path = find_latest_checkpoint(run)
    assert path.name == "epoch_0003"
    meta = load_checkpoint(path)[1]
    assert meta["step"] == 16 and meta["epoch"] == 3


def _stored_trainable(checkpoint):
    """The trainable names a checkpoint's moments were saved for, checked
    against the two flat moment entries it holds."""
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    names = manifest["meta"]["trainable"]
    shapes = {e["name"]: e["shape"] for e in manifest["params"]}
    size = sum(np.prod(shapes[n], dtype=int) for n in names)
    assert [n for n in shapes if n.startswith("opt.")] == ["opt.m", "opt.v"]
    assert shapes["opt.m"] == shapes["opt.v"] == [size]
    return names


@pytest.mark.parametrize("stage", ["vq", "cpt", "sft"])
def test_resume_opens_the_fresh_starts_trainable_set(tmp_path, chain, stage):
    _, cfg_vq, cfg_cpt, cfg_sft = chain
    cfg = copy.deepcopy({"vq": cfg_vq, "cpt": cfg_cpt, "sft": cfg_sft}[stage])
    spec_cls = {"vq": VqStage, "cpt": CptStage, "sft": SftStage}[stage]
    run = tmp_path / "run"
    cfg["train"]["epochs"] = 1
    STAGE_RUNNERS[stage](cfg, run)
    cfg["train"]["epochs"] = 2
    STAGE_RUNNERS[stage](cfg, run, resume=True)
    first, second = (run / "checkpoints" / f"epoch_{e:04d}" for e in (0, 1))
    stored = _stored_trainable(first)
    assert stored and _stored_trainable(second) == stored

    fresh_model = build_model(cfg)
    if cfg["train"]["init_from"]:
        training._load_into(fresh_model, load_checkpoint(cfg["train"]["init_from"])[0])
    fresh, fresh_scales = spec_cls(cfg).open(fresh_model, fresh=True)
    resumed_model = build_model(cfg)
    training._load_into(resumed_model, load_checkpoint(first)[0])
    resumed, resumed_scales = spec_cls(cfg).open(resumed_model, fresh=False)
    assert list(resumed_scales.items()) == list(fresh_scales.items())
    assert list(resumed) == list(fresh) == stored


def test_resume_refuses_moments_of_another_trainable_set(tmp_path, data_dir, monkeypatch):
    run = tmp_path / "run"
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    config_before = (run / "config.json").read_text()
    real_groups = VqStage.groups

    def groups_with_refiner(self, model):
        return real_groups(self, model) + [(lambda n: n.startswith("refiner."), 1.0)]

    monkeypatch.setattr(VqStage, "groups", groups_with_refiner)
    # the trainable names are checked before either moment is read
    another_set = r"optimizer state 'opt\.m' and 'opt\.v' were saved for another trainable set"
    with pytest.raises(DataError, match=another_set):
        STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 2}), run, resume=True)
    assert (run / "config.json").read_text() == config_before
    assert sorted(p.name for p in (run / "checkpoints").iterdir()) == ["epoch_0000"]


def _rows(log: bytes, edit) -> bytes:
    """The log with its rows after the header replaced by edit(rows)."""
    header, *rows = log.splitlines(keepends=True)
    return b"".join([header, *edit(rows)])


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda log: b"", "first row is not the header"),
        (lambda log: log.replace(b"\n1,", b"\nx,", 1), "malformed step field"),
        (lambda log: re.sub(rb"\n1,[^,]*,", b"\n1,abc,", log, count=1),
         "row of step 1 is not five finite floats"),
        (lambda log: re.sub(rb"\n2,[^,]*,", b"\n2,nan,", log, count=1),
         "row of step 2 is not five finite floats"),
        (lambda log: re.sub(rb"\n3,.*", b"\n3,1.0,0.0", log, count=1),
         "row of step 3 is not five finite floats"),
        (lambda log: _rows(log, lambda r: [r[0], r[0], *r[2:]]), "row 2 holds step 1"),
        (lambda log: _rows(log, lambda r: [r[0], *r[2:]]), "row 2 holds step 3"),
        (lambda log: _rows(log, lambda r: r[:-1]), "holds 3 rows up to step 4"),
        (lambda log: re.sub(rb"\n3,[^,]*,", b"\n3,999.0,", log, count=1),
         "row of step 3 has loss_total 999.0 != loss_text + loss_eeg + 0.1 * loss_orth"),
        (lambda log: None, "cannot read the log to resume"),
    ],
    ids=["emptied", "step-x", "loss-abc", "loss-nan", "short-row", "repeated-row", "missing-row",
         "missing-last-row", "loss-identity", "missing-log"],
)
def test_resume_refuses_a_malformed_metrics_log_as_it_is(tmp_path, data_dir, damage, message):
    run = tmp_path / "run"
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    log = run / "metrics.csv"
    damaged = damage(log.read_bytes())
    if damaged is None:
        log.unlink()
    else:
        log.write_bytes(damaged)
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    with pytest.raises(DataError, match=re.escape(f"{log}: {message}")):
        STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 2}), run, resume=True)
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def test_resume_checks_the_loss_identity_with_the_runs_lambda(tmp_path, chain):
    root, _, cfg_cpt, _ = chain
    run = tmp_path / "run"
    shutil.copytree(root / "cpt", run)
    log = run / "metrics.csv"
    header, *rows = log.read_bytes().splitlines(keepends=True)
    step, total, text, eeg, orth, lr = rows[4].split(b",")
    assert float(orth) > 0.0 and cfg_cpt["train"]["lambda_orth"] == 0.1
    # the same loss_total with loss_orth doubled: a λ of 0.05 would accept it
    rows[4] = b",".join([step, total, text, eeg, repr(2 * float(orth)).encode(), lr])
    log.write_bytes(b"".join([header, *rows]))
    cfg = copy.deepcopy(cfg_cpt)
    cfg["train"]["epochs"] = 3
    with pytest.raises(DataError, match=re.escape(f"{log}: row of step 5 has loss_total")):
        STAGE_RUNNERS["cpt"](cfg, run, resume=True)


def test_a_checkpoint_write_stopped_between_its_renames_leaves_no_manifest(
    tmp_path, data_dir, monkeypatch
):
    run = tmp_path / "run"
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    ckpt = run / "checkpoints" / "epoch_0000"
    arrays, meta = load_checkpoint(ckpt)
    real_replace = os.replace

    def killed_after_the_weights(src, dst):
        real_replace(src, dst)
        if Path(dst).name == "weights.bin":
            raise RuntimeError("killed")

    monkeypatch.setattr(os, "replace", killed_after_the_weights)
    with pytest.raises(RuntimeError, match="killed"):
        save_checkpoint(ckpt, {name: a + 1.0 for name, a in arrays.items()}, meta)
    monkeypatch.undo()
    assert (ckpt / "weights.bin").is_file() and not (ckpt / "manifest.json").exists()
    assert find_latest_checkpoint(run) is None
    with pytest.raises(DataError) as refused:
        load_checkpoint(ckpt)
    assert refused.value.exit_code == 3


def test_resume_drops_rows_logged_after_the_checkpoint(tmp_path, data_dir, monkeypatch):
    # crash after epoch 1's steps are logged but before its checkpoint is written
    run = tmp_path / "run"
    real_save = training.save_stage_checkpoint

    def crash_at_epoch_1(run_dir, model, opt, stage, epoch, step, extra):
        if epoch == 1:
            raise RuntimeError("interrupted")
        return real_save(run_dir, model, opt, stage, epoch, step, extra)

    monkeypatch.setattr(training, "save_stage_checkpoint", crash_at_epoch_1)
    with pytest.raises(RuntimeError, match="interrupted"):
        STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 3}), run)
    _, rows = read_metrics(run / "metrics.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 9))
    monkeypatch.setattr(training, "save_stage_checkpoint", real_save)
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 3}), run, resume=True)
    _, rows = read_metrics(run / "metrics.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 13))


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("stage", ["vq", "cpt", "sft"])
def test_a_stopped_and_resumed_run_writes_the_bytes_of_a_run_never_stopped(tmp_path, chain, monkeypatch, stage):
    # stopped after epoch 2's steps are logged but before its checkpoint is
    # written, then resumed from epoch 1 with the same epochs: every file,
    # weights, moments, codebook counters and log rows included, comes out the same
    root, *cfgs = chain
    cfg = copy.deepcopy(dict(zip(("vq", "cpt", "sft"), cfgs))[stage])
    cfg["train"]["epochs"] = 4
    if stage == "vq":  # 32 codes for 4 recordings: some go unused for 2 epochs and are revived
        cfg["quantizer"].update(num_codes=32, revival_epochs=2)
    STAGE_RUNNERS[stage](cfg, tmp_path / "whole")
    real_save = training.save_stage_checkpoint

    def stop_at_epoch_2(run_dir, model, opt, name, epoch, step, extra):
        if epoch == 2:
            raise RuntimeError("stopped")
        return real_save(run_dir, model, opt, name, epoch, step, extra)

    monkeypatch.setattr(training, "save_stage_checkpoint", stop_at_epoch_2)
    with pytest.raises(RuntimeError, match="stopped"):
        STAGE_RUNNERS[stage](cfg, tmp_path / "stopped")
    monkeypatch.setattr(training, "save_stage_checkpoint", real_save)
    STAGE_RUNNERS[stage](cfg, tmp_path / "stopped", resume=True)
    whole, resumed = _files(tmp_path / "whole"), _files(tmp_path / "stopped")
    assert whole.keys() == resumed.keys()
    assert [name for name in whole if whole[name] != resumed[name]] == []


def test_a_vq_resume_refuses_a_checkpoint_without_the_codebook_counters(tmp_path, data_dir):
    # as a checkpoint written before the counters were saved: --init-from still reads it
    run = tmp_path / "run"
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    manifest = run / "checkpoints" / "epoch_0000" / "manifest.json"
    old = json.loads(manifest.read_text())
    del old["dtype"], old["meta"]["epoch_counts"], old["meta"]["unused_epochs"]
    manifest.write_text(json.dumps(old, indent=1))
    before = _files(run)
    with pytest.raises(DataError, match="codebook counter 'epoch_counts'") as refused:
        STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 2}), run, resume=True)
    assert refused.value.exit_code == 3 and _files(run) == before
    cfg = toy_cfg(data_dir, train={"epochs": 1, "init_from": str(manifest.parent)})
    STAGE_RUNNERS["cpt"]({**cfg, "stage": "cpt"}, tmp_path / "cpt")


def test_every_stage_computes_and_stores_float32(tmp_path, data_dir, monkeypatch):
    # a float64 array that meets a float32 one promotes the node, and every
    # node and gradient downstream of it: a constant matrix, a cached buffer
    # or a signal target built in float64 would show here
    dtypes = set()
    real_record = ad._record

    def record(out, inputs, vjp):
        def checked_vjp(g):
            grads = vjp(g)
            dtypes.update((f"{vjp.__qualname__} gradient", gin.dtype.name) for gin in grads if gin is not None)
            return grads

        dtypes.add((vjp.__qualname__, out.data.dtype.name))
        return real_record(out, inputs, checked_vjp)

    monkeypatch.setattr(ad, "_record", record)
    init = None
    for stage in ("vq", "cpt", "sft"):
        cfg = toy_cfg(data_dir, train={"epochs": 1, "init_from": init})
        STAGE_RUNNERS[stage]({**cfg, "stage": stage}, tmp_path / stage)
        init = str(tmp_path / stage / "checkpoints" / "epoch_0000")
        assert {a.dtype for a in load_checkpoint(init)[0].values()} == {np.dtype(np.float32)}
    assert len(dtypes) > 20 and {d for _, d in dtypes} == {"float32"}, sorted(dtypes)


def test_vq_resume_keeps_the_checkpoints_codebook(tmp_path, data_dir, monkeypatch):
    # only a fresh vq start warm-starts the codebook by k-means
    calls = []
    real_warm_start = VectorQuantizer.warm_start

    def counted(self, rows, rng):
        calls.append(rows.shape)
        return real_warm_start(self, rows, rng)

    monkeypatch.setattr(VectorQuantizer, "warm_start", counted)
    run = tmp_path / "run"
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    assert len(calls) == 1
    saved = load_checkpoint(run / "checkpoints" / "epoch_0000")[0]["quant.codebook"]
    prepared = []
    real_prepare = VqStage.prepare

    def snapshot(self, model, corpus):
        items = real_prepare(self, model, corpus)
        prepared.append(model.quantizer.codebook.data.copy())
        return items

    monkeypatch.setattr(VqStage, "prepare", snapshot)
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 2}), run, resume=True)
    assert len(calls) == 1
    assert len(prepared) == 1 and np.array_equal(prepared[0], saved)


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_a_step_holds_neither_the_start_checkpoint_nor_the_last_steps_gradients(
    tmp_path, chain, monkeypatch, resume
):
    root, _, cfg_cpt, _ = chain
    cfg, run = copy.deepcopy(cfg_cpt), tmp_path / "run"
    if resume:  # two more epochs after the chain's two
        shutil.copytree(root / "cpt", run)
        cfg["train"]["epochs"] = 4
    spent, alive = [], []  # weakrefs to what a step no longer needs; live ones per step
    real_load, real_clip, real_step = training.load_checkpoint, training.clip_global_norm, CptStage.step

    def load(path):
        arrays, meta = real_load(path)
        spent.extend(map(weakref.ref, arrays.values()))
        return arrays, meta

    def clip(grads, max_norm):
        named = real_clip(grads, max_norm)
        spent.extend(weakref.ref(g) for d in (grads, named) for g in d.values())
        return named

    def step(self, model, item):
        alive.append(sum(ref() is not None for ref in spent))
        return real_step(self, model, item)

    monkeypatch.setattr(training, "load_checkpoint", load)
    monkeypatch.setattr(training, "clip_global_norm", clip)
    monkeypatch.setattr(CptStage, "step", step)
    gc.disable()  # reference counting alone must free them
    try:
        STAGE_RUNNERS["cpt"](cfg, run, resume=resume)
    finally:
        gc.enable()
    assert len(spent) > 100 and alive == [0] * 8


def _count_reads(monkeypatch) -> list[str]:
    """The names of the containers read through the corpus, in read order."""
    reads = []
    real_load = synth.load_container

    def load(path):
        reads.append(Path(path).name)
        return real_load(path)

    monkeypatch.setattr(synth, "load_container", load)
    return reads


def test_each_stage_reads_its_recordings_when_it_uses_them(tmp_path, chain, data_dir, monkeypatch):
    from eeglm.evaluate import evaluate_checkpoint

    root, cfg_vq, cfg_cpt, cfg_sft = chain
    names = sorted(p.name for p in data_dir.glob("sample_*"))
    reads = _count_reads(monkeypatch)
    # vq: every recording once in prepare, then once per step of each of 2 epochs
    STAGE_RUNNERS["vq"](cfg_vq, tmp_path / "vq")
    assert sorted(reads) == sorted(names * 3)
    # cpt, sft and eval prepare their sequences from one read each, labels checked with none
    for stage, cfg in (("cpt", cfg_cpt), ("sft", cfg_sft)):
        reads.clear()
        STAGE_RUNNERS[stage](cfg, tmp_path / stage)
        assert reads == names
    reads.clear()
    evaluate_checkpoint(root / "sft" / "checkpoints" / "epoch_0001", data_dir)
    assert reads == names


def test_a_vq_step_starts_with_at_most_one_recording_alive(tmp_path, data_dir, monkeypatch):
    loaded, alive = [], []  # weakrefs to every recording's data; live ones per step
    real_load, real_graph = synth.load_container, training.Graph

    def load(path):
        rec = real_load(path)
        loaded.append(weakref.ref(rec.data))
        return rec

    class StepGraph(real_graph):
        def __enter__(self):
            alive.append(sum(ref() is not None for ref in loaded))
            return super().__enter__()

    monkeypatch.setattr(synth, "load_container", load)
    monkeypatch.setattr(training, "Graph", StepGraph)
    gc.disable()  # reference counting alone must free them
    try:
        STAGE_RUNNERS["vq"](toy_cfg(data_dir), tmp_path / "run")
    finally:
        gc.enable()
    assert len(alive) == 8 and max(alive) <= 1 and len(loaded) == 12


def test_vq_memory_at_backward_does_not_grow_with_the_set(tmp_path, monkeypatch):
    at_backward = []
    real_backward = training.backward

    def backward(loss, wrt=None):
        at_backward.append(tracemalloc.get_traced_memory()[0])
        return real_backward(loss, wrt)

    monkeypatch.setattr(training, "backward", backward)

    def largest_at_backward(n_per_class: int, traced: bool = True) -> int:
        data, run = tmp_path / f"data-{n_per_class}", tmp_path / f"run-{n_per_class}-{traced}"
        if not data.exists():  # 30 s recordings, so that one outweighs the per-step pool rows
            make_dataset(data, n_per_class=n_per_class, classes=("class-a", "class-b"),
                         montage="synthetic-2", seconds=30.0, seed=0)
        cfg = toy_cfg(data, encoder={"max_patches": 32}, train={"epochs": 1})
        at_backward.clear()
        if traced:
            tracemalloc.start()
        try:
            STAGE_RUNNERS["vq"](cfg, run)
        finally:
            tracemalloc.stop()
        return max(at_backward)

    largest_at_backward(1, traced=False)  # first-use allocations happen outside the trace
    two, eight = largest_at_backward(1), largest_at_backward(4)
    one_recording = 2 * 6000 * 8  # 2 channels x 6000 float64 samples
    assert eight - two < one_recording


QUICK_START = [parse_override(kv) for kv in recipe.SET[1::2]]
WIDE = [parse_override(kv) for kv in recipe.WIDE_SET[1::2]]


def one_step_peak(spec_cls, overrides, rec) -> int:
    """Traced peak bytes of one training step of a fresh stage on one
    recording, with the model, the optimizer and the data allocated under
    the trace, as the stage loop takes the step."""
    cfg = resolve_config(None, overrides)
    tracemalloc.start()
    try:
        model = build_model(cfg)
        spec = spec_cls(cfg)
        trainable, scales = spec.open(model, fresh=True)
        hyper = {k: cfg["optimizer"][k] for k in ("betas", "eps", "weight_decay")}
        opt = AdamW(trainable, lr_scales=scales, **hyper)
        (item,) = spec.prepare(model, [("sample_0000", rec, "class-a")])
        tracemalloc.reset_peak()
        with training.Graph():
            loss, _ = spec.step(model, item)
            grads = training.backward(loss, wrt=list(trainable.values()))
            grads = {k: grads[v] for k, v in trainable.items()}
        opt.step(training.clip_global_norm(grads, cfg["optimizer"]["clip_norm"]), lr=1e-3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spec_cls, overrides, montage, fs, seconds, bound_mb",
    # measured at 14.7 and 9.8 MB; 17.7 and 13.9 MB while the losses were
    # chains of small nodes, ffn and conv1d held their activation and im2col
    # columns, and AdamW held two work buffers between steps
    [(CptStage, QUICK_START, recipe.value(recipe.quick_start()[0], "--montage"), 200.0, 2.0, 16.0),
     (VqStage, WIDE, recipe.WIDE_MONTAGE, recipe.WIDE_FS, recipe.WIDE_SECONDS, 11.5)],
    ids=["cpt-quick-start", "vq-19-channels"],
)
def test_a_training_step_stays_under_its_traced_memory_bound(
    spec_cls, overrides, montage, fs, seconds, bound_mb
):
    channels = get_montage(montage).labels
    rec = make_recording("class-a", channels, np.random.default_rng(7), fs=fs, seconds=seconds)
    if fs != WORK_FS:
        rec = preprocess(rec)
    assert one_step_peak(spec_cls, overrides, rec) < bound_mb * 1e6


def test_resume_refuses_another_stages_checkpoint(tmp_path, chain):
    root, _, _, cfg_sft = chain
    run = tmp_path / "run"
    shutil.copytree(root / "cpt", run)
    with pytest.raises(ConfigError, match="sft stage must start from a sft checkpoint"):
        STAGE_RUNNERS["sft"](copy.deepcopy(cfg_sft), run, resume=True)
    assert sorted(p.name for p in (run / "checkpoints").iterdir()) == ["epoch_0000", "epoch_0001"]
    assert (run / "config.json").read_text() == (root / "cpt" / "config.json").read_text()


@pytest.mark.parametrize("leftover", ["metrics.csv", "checkpoints/epoch_0000"])
def test_a_fresh_run_refuses_a_run_directory_that_holds_a_run(tmp_path, data_dir, leftover):
    run = tmp_path / "run"
    (run / leftover).parent.mkdir(parents=True, exist_ok=True)
    (run / leftover).touch()
    before = sorted(run.rglob("*"))
    with pytest.raises(UsageError, match=re.escape(f"{run} already holds a run")):
        STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    assert sorted(run.rglob("*")) == before and (run / leftover).read_bytes() == b""


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"optimizer": {"lr": 0.5}}, "optimizer.lr"),
        ({"seed": 9, "optimizer": {"clip_norm": 2.0}}, "optimizer.clip_norm, seed"),
    ],
    ids=["lr", "seed-and-clip"],
)
def test_resume_refuses_a_changed_config_naming_the_keys(tmp_path, data_dir, changes, named):
    run = tmp_path / "run"
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    cfg = toy_cfg(data_dir, train={"epochs": 2})
    for key, value in changes.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    with pytest.raises(ConfigError, match=re.escape(f"but {named} differ")):
        STAGE_RUNNERS["vq"](cfg, run, resume=True)
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def test_resume_may_change_the_epochs_and_the_start_checkpoint(tmp_path, chain):
    root, _, cfg_cpt, _ = chain
    run = tmp_path / "run"
    cfg = copy.deepcopy(cfg_cpt)
    cfg["train"]["epochs"] = 1
    STAGE_RUNNERS["cpt"](cfg, run)
    assert training.RESUMABLE_KEYS == ("train.epochs", "train.init_from")
    cfg["train"]["epochs"] = 2
    cfg["train"]["init_from"] = str(root / "vq" / "checkpoints" / "epoch_0000")
    assert STAGE_RUNNERS["cpt"](cfg, run, resume=True)["steps"] == 8


@pytest.mark.parametrize("stage", ["vq", "cpt", "sft"])
def test_a_run_resumed_to_more_epochs_keeps_its_epochs_and_steps_on_the_longer_schedule(tmp_path, chain, stage):
    # a 1-epoch run resumed to 2: epoch 0's checkpoint and rows keep their
    # bytes, and epoch 1 steps at the lr of the 2-epoch schedule
    _, *cfgs = chain
    cfg = copy.deepcopy(dict(zip(("vq", "cpt", "sft"), cfgs))[stage])
    run = tmp_path / "run"
    cfg["train"]["epochs"] = 1
    STAGE_RUNNERS[stage](cfg, run)
    before = _files(run)
    cfg["train"]["epochs"] = 2
    summary = STAGE_RUNNERS[stage](cfg, run, resume=True)
    after = _files(run)
    assert summary["epochs"] == 2 and summary["steps"] == 8
    assert json.loads(after["config.json"])["train"]["epochs"] == 2
    kept = [name for name in before if name.startswith("checkpoints/epoch_0000/")]
    assert len(kept) == 2 and all(after[name] == before[name] for name in kept)
    assert after["metrics.csv"].startswith(before["metrics.csv"])
    _, rows = read_metrics(run / "metrics.csv")
    lr = [cosine_schedule(step, 8, cfg["optimizer"]["lr"], **cfg["schedule"]) for step in range(4, 8)]
    assert [row[-1] for row in rows[4:]] == lr


def test_find_latest_skips_incomplete_checkpoints(tmp_path, data_dir):
    run = tmp_path / "run"
    STAGE_RUNNERS["vq"](toy_cfg(data_dir, train={"epochs": 1}), run)
    (run / "checkpoints" / "epoch_0007").mkdir()  # no manifest inside
    assert find_latest_checkpoint(run).name == "epoch_0000"
    assert find_latest_checkpoint(tmp_path / "absent") is None


def test_load_model_round_trip(chain):
    root, _, _, _ = chain
    ckpt = root / "vq" / "checkpoints" / "epoch_0001"
    model, meta = load_model(ckpt)
    assert meta["stage"] == "vq"
    arrays, _ = load_checkpoint(ckpt)
    named = model.named_parameters()
    for name in ("quant.codebook", "encoder.embedder.conv1_w", "backbone.tok_emb.table"):
        np.testing.assert_array_equal(named[name].data, arrays[name])



def test_load_model_holds_one_entry_beyond_the_parameters(quick_start):
    assert quick_start.proc.returncode == 0, quick_start.proc.stderr[-2000:]
    ckpt = quick_start.out / recipe.last_checkpoint("sft")
    load_model(ckpt)  # first-use allocations happen outside the trace
    tracemalloc.start()
    try:
        model, _ = load_model(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params = [t.data.nbytes for t in model.named_parameters().values()]
    largest_entry = max(a.nbytes for a in load_checkpoint(ckpt)[0].values())
    # the slack: building the model draws each parameter in float64 before
    # casting it (twice the largest parameter), and 64 KiB of Python objects
    slack = 2 * max(params) + 64 * 1024
    # measured 1.36 MB against a bound of 1.47 MB; 2.45 MB when a load held
    # a copy of the whole weights file beside the model
    assert peak <= sum(params) + largest_entry + slack, (peak, sum(params), largest_entry)


# -- cpt stage --------------------------------------------------------------


def test_cpt_structure_opens_exactly_adapters_expansion_refiner(data_dir):
    cfg = toy_cfg(data_dir)
    model = build_model(cfg)
    trainable = set(CptStage(cfg).open(model, fresh=True)[0])
    expansion = {f"backbone.{n}" for n in model.backbone.expansion_parameters()}
    named = model.named_parameters()
    adapters = {n for n in named if "lora_a" in n or "lora_b" in n}
    refiner = {n for n in named if n.startswith("refiner.")}
    assert adapters and refiner and expansion
    assert trainable == adapters | expansion | refiner
    for name in trainable:
        assert not name.startswith(("encoder.", "recon.", "quant."))


def test_cpt_requires_vq_init(tmp_path, data_dir):
    cfg = toy_cfg(data_dir)
    cfg["stage"] = "cpt"
    with pytest.raises(ConfigError, match="train.init_from"):
        STAGE_RUNNERS["cpt"](cfg, tmp_path / "run")
    bogus = tmp_path / "bogus"
    save_checkpoint(bogus, {"x": np.zeros(1)}, {"stage": "sft", "config": cfg})
    cfg["train"]["init_from"] = str(bogus)
    with pytest.raises(ConfigError, match="must start from a vq checkpoint"):
        STAGE_RUNNERS["cpt"](cfg, tmp_path / "run2")


def test_cpt_csv_identity(chain):
    root, _, cfg_cpt, _ = chain
    lam = cfg_cpt["train"]["lambda_orth"]
    _, rows = read_metrics(root / "cpt" / "metrics.csv")
    assert len(rows) == cfg_cpt["train"]["epochs"] * 4
    for _, total, text, eeg, orth, _ in rows:
        assert total == pytest.approx(text + eeg + lam * orth, abs=1e-9)
        assert text > 0.0 and eeg > 0.0


def test_cpt_leaves_signal_stages_untouched(chain):
    root, _, _, _ = chain
    before, _ = load_checkpoint(root / "vq" / "checkpoints" / "epoch_0001")
    after, meta = load_checkpoint(root / "cpt" / "checkpoints" / "epoch_0001")
    assert meta["stage"] == "cpt"
    for name in before:
        if name.startswith(("encoder.", "recon.", "quant.")):
            np.testing.assert_array_equal(before[name], after[name])
    moved = [n for n in before if n.startswith("refiner.")]
    assert any(not np.array_equal(before[n], after[n]) for n in moved)


def test_cpt_summary_reports_uniform_baseline(chain):
    root, _, cfg_cpt, _ = chain
    import json

    summary = json.loads((root / "cpt" / "artifacts" / "summary.json").read_text())
    assert summary["uniform_eeg_nll"] == pytest.approx(np.log(8))
    assert len(summary["epoch_avg_loss"]) == cfg_cpt["train"]["epochs"]


# -- sft stage --------------------------------------------------------------


def test_finetune_plan_contract(chain, data_dir):
    root, _, _, _ = chain
    model, _ = load_model(root / "cpt" / "checkpoints" / "epoch_0001")
    spec = SftStage(toy_cfg(data_dir, optimizer={"lr": 2e-3}))
    trainable, scales = spec.open(model, fresh=True)
    assert spec.plan == {"adapter": 2e-3, "refiner": pytest.approx(2e-4)}
    named = model.named_parameters()
    assert set(trainable) == {
        n for n in named if "lora_" in n or n.startswith("refiner.")
    }
    scales = {n: s for n, s in scales.items() if s != 1.0}
    assert set(scales) == {n for n in named if n.startswith("refiner.")}
    assert all(s == pytest.approx(0.1) for s in scales.values())
    for name, t in named.items():
        assert t.requires_grad == (name in trainable)


def test_finetune_merges_previous_adapter(chain):
    root, _, _, _ = chain
    model, _ = load_model(root / "cpt" / "checkpoints" / "epoch_0001")
    wq = model.backbone.blocks[0].attn.wq
    base_before = wq.w.data.copy()
    assert np.abs(wq.lora_b.data).max() > 0  # cpt actually trained the adapter
    SftStage(model.cfg).open(model, fresh=True)
    assert np.abs(wq.w.data - base_before).max() > 0  # old adapter folded in
    assert np.all(wq.lora_b.data == 0.0)  # fresh adapter starts at zero


@pytest.mark.usefixtures("float64")
def test_refiner_moves_at_a_tenth_of_adapter_rate(chain):
    # with unit gradients everywhere, AdamW moves each weight by ~lr * scale
    root, _, _, _ = chain
    model, _ = load_model(root / "cpt" / "checkpoints" / "epoch_0001")
    trainable, scales = SftStage(model.cfg).open(model, fresh=True)
    opt = AdamW(trainable, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0, lr_scales=scales)
    before = {n: t.data.copy() for n, t in trainable.items()}
    opt.step({n: np.ones_like(t.data) for n, t in trainable.items()}, lr=1e-3)
    deltas = {n: np.abs(t.data - before[n]).max() for n, t in trainable.items()}
    adapter_move = max(v for n, v in deltas.items() if "lora_" in n)
    refiner_move = max(v for n, v in deltas.items() if n.startswith("refiner."))
    assert refiner_move / adapter_move == pytest.approx(0.1, rel=1e-6)


def test_balanced_order_oversamples_rare_class():
    labels = ["a"] * 9 + ["b"]
    hits = 0
    for epoch in range(200):
        order = balanced_order(labels, np.random.default_rng(epoch))
        hits += int(np.sum(order == 9))
    assert 0.45 <= hits / 2000 <= 0.55  # rare class drawn ~half the time


def test_sft_requires_cpt_init(tmp_path, data_dir, chain):
    root, _, _, _ = chain
    cfg = toy_cfg(data_dir)
    cfg["stage"] = "sft"
    with pytest.raises(ConfigError, match="train.init_from"):
        STAGE_RUNNERS["sft"](cfg, tmp_path / "run")
    cfg["train"]["init_from"] = str(root / "vq" / "checkpoints" / "epoch_0001")
    with pytest.raises(ConfigError, match="must start from a cpt checkpoint"):
        STAGE_RUNNERS["sft"](cfg, tmp_path / "run2")


def test_sft_metrics_and_summary(chain):
    root, _, _, cfg_sft = chain
    _, rows = read_metrics(root / "sft" / "metrics.csv")
    assert len(rows) == cfg_sft["train"]["epochs"] * 4
    for _, total, text, eeg, orth, _ in rows:
        assert eeg == 0.0 and orth == 0.0 and text == total
    import json

    summary = json.loads((root / "sft" / "artifacts" / "summary.json").read_text())
    assert summary["plan"] == {
        "adapter": cfg_sft["optimizer"]["lr"],
        "refiner": pytest.approx(0.1 * cfg_sft["optimizer"]["lr"]),
    }


def test_sft_resume_continues(tmp_path, data_dir, chain):
    root, _, _, cfg_sft = chain
    run = tmp_path / "run"
    cfg = copy.deepcopy(cfg_sft)
    cfg["train"]["epochs"] = 1
    STAGE_RUNNERS["sft"](cfg, run)
    cfg = copy.deepcopy(cfg_sft)
    cfg["train"]["epochs"] = 2
    STAGE_RUNNERS["sft"](cfg, run, resume=True)
    _, rows = read_metrics(run / "metrics.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 9))


def test_stage_dispatch_names():
    assert set(STAGE_RUNNERS) == {"vq", "cpt", "sft"}
