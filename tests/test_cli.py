"""Command-line surface: layouts, determinism, provenance, and exit codes."""

from __future__ import annotations

import csv
import ctypes
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import eeglm
import oracles
import recipe
from eeglm import checkpoint, cli, training
from eeglm.checkpoint import load_checkpoint, save_checkpoint
from eeglm.cli import ATTN_HEADER, main
from eeglm.config import DEFAULTS
from eeglm.evaluate import BINARY_METRICS
from eeglm.profiler import StubClient
from eeglm.signal_io import Recording, load_container, save_container
from eeglm.synth import make_dataset
from eeglm.training import load_model, profile_recording

ROOT = Path(__file__).resolve().parents[1]

TOY_CONFIG = {
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


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Config file, synthetic data, and a vq -> cpt -> sft chain run via main()."""
    root = tmp_path_factory.mktemp("cli")
    cfg_file = root / "config.json"
    cfg_file.write_text(json.dumps(TOY_CONFIG))
    base = ["--config", str(cfg_file)]
    data, eval_data = root / "data", root / "eval-data"
    for out, seed in ((data, 0), (eval_data, 1)):
        rc = main(base + [
            "--out", str(out), "--seed", str(seed),
            "synth", "--per-class", "2", "--montage", "synthetic-2",
        ])
        assert rc == 0
    runs = {s: root / f"run-{s}" for s in ("vq", "cpt", "sft")}
    assert main(base + [
        "--out", str(runs["vq"]), "train", "--stage", "vq", "--data", str(data),
    ]) == 0
    ckpt_vq = runs["vq"] / "checkpoints" / "epoch_0001"
    assert main(base + [
        "--out", str(runs["cpt"]), "train", "--stage", "cpt", "--data", str(data),
        "--init-from", str(ckpt_vq), "--epochs", "1",
    ]) == 0
    ckpt_cpt = runs["cpt"] / "checkpoints" / "epoch_0000"
    assert main(base + [
        "--out", str(runs["sft"]), "train", "--stage", "sft", "--data", str(data),
        "--init-from", str(ckpt_cpt), "--epochs", "1",
    ]) == 0
    return {
        "base": base,
        "root": root,
        "data": data,
        "eval_data": eval_data,
        "sample": data / "sample_0000",
        "ckpt_vq": ckpt_vq,
        "ckpt_cpt": ckpt_cpt,
        "ckpt_sft": runs["sft"] / "checkpoints" / "epoch_0000",
        "runs": runs,
    }


# -- synth -------------------------------------------------------------------


def test_synth_layout_seed_and_determinism(env, tmp_path):
    out = tmp_path / "ds"
    rc = main(env["base"] + [
        "--out", str(out), "--seed", "5",
        "synth", "--per-class", "1", "--montage", "synthetic-2",
    ])
    assert rc == 0
    assert json.loads((out / "config.json").read_text())["seed"] == 5
    names = json.loads((out / "dataset.json").read_text())["samples"]
    assert names == ["sample_0000", "sample_0001"]
    mirror = tmp_path / "mirror"
    make_dataset(mirror, n_per_class=1, classes=("class-a", "class-b"),
                 montage="synthetic-2", seed=5)
    assert (out / "sample_0000" / "signal.bin").read_bytes() == (
        mirror / "sample_0000" / "signal.bin"
    ).read_bytes()


@pytest.mark.parametrize(
    "overrides", [list(recipe.SET), ["--set", "optimizer.lr=1"], ["--set", "train.init_from=null"]],
    ids=["recipe", "an-int-for-a-float", "init-from-null"],
)
def test_config_values_of_their_defaults_type_are_taken(tmp_path, overrides):
    rc = main(overrides + [
        "--out", str(tmp_path / "ds"), "synth", "--per-class", "1", "--montage", "synthetic-2",
    ])
    assert rc == 0


# -- preprocess ---------------------------------------------------------------


def test_preprocess_provenance_and_determinism(env, tmp_path):
    sample = env["data"] / "sample_0000"
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = main(env["base"] + [
            "--out", str(out), "preprocess", str(sample), "--target-fs", "200",
        ])
        assert rc == 0
    meta = json.loads((outs[0] / "manifest.json").read_text())
    prov = meta["provenance"]
    assert prov["notch"] == 50.0
    assert prov["band"] == [0.1, 75.0]
    assert prov["order"] == ["resample", "bandpass+notch", "robust-scale"]
    assert prov["scaling"] == "median-iqr"
    assert (outs[0] / "signal.bin").read_bytes() == (outs[1] / "signal.bin").read_bytes()


def test_preprocess_notch_zero_disables(env, tmp_path):
    sample = env["data"] / "sample_0000"
    out = tmp_path / "c"
    rc = main(env["base"] + [
        "--out", str(out), "preprocess", str(sample), "--notch", "0",
    ])
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["provenance"]["notch"] is None


def test_preprocess_reads_a_csv_at_the_rate_fs_gives(env, tmp_path):
    _case(env, tmp_path, CSV)
    out = tmp_path / "out"
    assert main(env["base"] + ["--out", str(out), "preprocess", str(tmp_path / "rec.csv"), "--fs", "250"]) == 0
    assert load_container(out).fs == 200.0


def test_preprocess_holds_173_61_hz_as_1061_over_921(env, tmp_path):
    # 200/173.61 = 1.1520074; 1061/921 = 1.1520087 is within 1.2e-6 of it
    _case(env, tmp_path, recording("{case}/rec", 173.61, 1042))
    out = tmp_path / "out"
    assert main(env["base"] + ["--out", str(out), "preprocess", str(tmp_path / "rec")]) == 0
    rec = load_container(out)
    assert rec.fs == 200.0
    assert rec.n_samples == 1200  # floor(1042 * 200 / 173.61)


def test_preprocess_resamples_two_samples_at_100_hz_to_four(env, tmp_path):
    _case(env, tmp_path, recording("{case}/rec", 100.0, 2))
    out = tmp_path / "out"
    assert main(env["base"] + ["--out", str(out), "preprocess", str(tmp_path / "rec")]) == 0
    rec = load_container(out)
    assert (rec.fs, rec.n_samples) == (200.0, 4)
    assert np.isfinite(rec.data).all()


# -- tokenize -----------------------------------------------------------------


def test_tokenize_output_and_determinism(env, tmp_path):
    sample = env["data"] / "sample_0000"
    outs = [tmp_path / "a.tok", tmp_path / "b.tok"]
    for out in outs:
        rc = main(env["base"] + [
            "--out", str(out), "tokenize",
            "--container", str(sample), "--checkpoint", str(env["ckpt_vq"]),
        ])
        assert rc == 0
    header, *rows = outs[0].read_text().splitlines()
    channels, patches, num_codes = (int(x) for x in header.split())
    assert num_codes == 8
    assert (channels, patches) == (2, 2)
    assert len(rows[0].split()) == 4
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_tokenize_makes_the_directories_of_a_nested_out(env, tmp_path):
    # once a traceback with exit 1, after the model had run
    outs = [tmp_path / "t.tok", tmp_path / "a" / "b" / "t.tok"]
    for out in outs:
        assert main(env["base"] + [
            "--out", str(out), "tokenize", "--container", str(env["sample"]), "--checkpoint", str(env["ckpt_vq"]),
        ]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()


# -- profile ------------------------------------------------------------------


def test_profile_outputs_and_determinism(env, tmp_path):
    sample = env["data"] / "sample_0000"
    outs = [tmp_path / "p1", tmp_path / "p2"]
    for out in outs:
        rc = main(env["base"] + [
            "--out", str(out), "profile", "--container", str(sample),
        ])
        assert rc == 0
    for name in ("prompt.txt", "features.json", "profile.json", "config.json"):
        assert (outs[0] / name).is_file()
    assert (outs[0] / "profile.json").read_text() == (outs[1] / "profile.json").read_text()
    profile = json.loads((outs[0] / "profile.json").read_text())
    assert profile["_retries"] == 0
    features = json.loads((outs[0] / "features.json").read_text())
    assert set(features["channel_spectra"]) == {"X0", "X1"}


def test_profile_command_matches_profile_recording(env, tmp_path):
    sample = env["data"] / "sample_0000"
    out = tmp_path / "p"
    assert main(env["base"] + ["--out", str(out), "profile", "--container", str(sample)]) == 0
    model, _ = load_model(env["ckpt_vq"])
    _, prompt, result = profile_recording(
        load_container(sample), model, sample.name, StubClient()
    )
    assert (out / "prompt.txt").read_text() == prompt
    record = json.loads((out / "profile.json").read_text())
    assert record.pop("_retries") == result.retries
    assert record == result.profile.to_dict()


# -- train / eval -------------------------------------------------------------


def test_train_run_dir_layout(env):
    run = env["runs"]["sft"]
    assert (run / "config.json").is_file()
    assert (run / "metrics.csv").is_file()
    assert (run / "artifacts" / "summary.json").is_file()
    assert (env["ckpt_sft"] / "manifest.json").is_file()


def test_train_resume_extends_run(env, tmp_path):
    run = tmp_path / "run"
    base = env["base"]
    assert main(base + [
        "--out", str(run), "train", "--stage", "vq",
        "--data", str(env["data"]), "--epochs", "1",
    ]) == 0
    assert main(base + [
        "--out", str(run), "train", "--stage", "vq",
        "--data", str(env["data"]), "--epochs", "2", "--resume",
    ]) == 0
    with open(run / "metrics.csv", newline="") as f:
        steps = [int(row["step"]) for row in csv.DictReader(f)]
    assert steps == list(range(1, 9))


def test_train_resume_reads_the_checkpoint_once(env, tmp_path, monkeypatch):
    from eeglm import training

    run = tmp_path / "run"
    base = env["base"]
    assert main(base + [
        "--out", str(run), "train", "--stage", "vq",
        "--data", str(env["data"]), "--epochs", "1",
    ]) == 0
    loaded = []
    real_load = training.load_checkpoint

    def counting_load(path):
        loaded.append(path)
        return real_load(path)

    monkeypatch.setattr(training, "load_checkpoint", counting_load)
    assert main(base + [
        "--out", str(run), "train", "--stage", "vq",
        "--data", str(env["data"]), "--epochs", "2", "--resume",
    ]) == 0
    assert loaded == [run / "checkpoints" / "epoch_0000"]


def test_train_resume_reads_each_checkpoint_entry_once(env, tmp_path, monkeypatch):
    run = tmp_path / "run"
    argv = env["base"] + ["--out", str(run), "train", "--stage", "vq", "--data", str(env["data"])]
    assert main(argv + ["--epochs", "1"]) == 0
    names = list(load_checkpoint(run / "checkpoints" / "epoch_0000")[0])
    reads = []
    real_getitem = checkpoint.Entries.__getitem__

    def counting_getitem(entries, name):
        reads.append(name)
        return real_getitem(entries, name)

    monkeypatch.setattr(checkpoint.Entries, "__getitem__", counting_getitem)
    assert main(argv + ["--epochs", "2", "--resume"]) == 0
    assert {"opt.m", "opt.v"} < set(names)
    assert sorted(reads) == sorted(names)


def _old_layout(ckpt: Path, out: Path) -> Path:
    """`ckpt` written to `out` as checkpoints were laid out before the moments
    were stored flat: one `opt.m/<name>` and one `opt.v/<name>` entry per
    trainable parameter, no trainable names, and the step count repeated as
    `opt_step`. The weights keep their bytes."""
    weights = (ckpt / "weights.bin").read_bytes()
    arrays, meta = load_checkpoint(ckpt)
    arrays = dict(arrays)
    names = meta.pop("trainable")
    cuts = np.cumsum([arrays[n].size for n in names])[:-1]
    for key in ("opt.m", "opt.v"):
        for name, part in zip(names, np.split(arrays.pop(key), cuts)):
            arrays[f"{key}/{name}"] = part.reshape(arrays[name].shape)
    meta["opt_step"] = meta["step"]
    save_checkpoint(out, arrays, meta)
    assert (out / "weights.bin").read_bytes() == weights
    return out


def test_old_layout_checkpoints_still_start_a_stage_and_serve_every_reader(env, tmp_path):
    # only --resume reads the moments: the parameter entries keep their layout
    sample = str(env["data"] / "sample_0000")

    def outputs(name, ckpt_vq, ckpt_sft):
        out = tmp_path / name
        commands = {
            "cpt": ["train", "--stage", "cpt", "--data", str(env["data"]),
                    "--init-from", str(ckpt_vq), "--epochs", "1"],
            "eval": ["eval", "--checkpoint", str(ckpt_sft), "--data", str(env["eval_data"])],
            "tokens.txt": ["tokenize", "--container", sample, "--checkpoint", str(ckpt_vq)],
            "attn.csv": ["attn-export", "--checkpoint", str(ckpt_sft), "--container", sample],
        }
        for sub, args in commands.items():
            assert main(env["base"] + ["--out", str(out / sub), *args]) == 0
        # the cpt run's config and manifests name the checkpoint it started from
        return {
            p.relative_to(out): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and not (p.relative_to(out).parts[0] == "cpt"
                                    and p.name in ("config.json", "manifest.json"))
        }

    old = outputs("old", _old_layout(env["ckpt_vq"], tmp_path / "old-vq"),
                  _old_layout(env["ckpt_sft"], tmp_path / "old-sft"))
    new = outputs("new", env["ckpt_vq"], env["ckpt_sft"])
    assert Path("cpt", "checkpoints", "epoch_0000", "weights.bin") in new
    assert old == new


@pytest.mark.parametrize("init_from", ["does/not/exist", "{ckpt_vq}"], ids=["missing", "vq-checkpoint"])
def test_a_resumed_vq_run_may_change_init_from(env, tmp_path, init_from):
    # a fresh vq run refuses any train.init_from (rows vq-init-from-*); a resumed one never reads it
    init_from = init_from.format(**env)
    paths, run = _case(env, tmp_path, RUN), tmp_path / "run"
    assert main(env["base"] + [*_args(paths, RESUME), "--init-from", init_from]) == 0
    assert json.loads((run / "config.json").read_text())["train"]["init_from"] == init_from
    assert (run / "checkpoints" / "epoch_0002" / "manifest.json").is_file()


def test_a_finished_run_resumed_with_its_own_epochs_writes_the_same_bytes(env, tmp_path):
    paths, run = _case(env, tmp_path, RUN), tmp_path / "run"
    before = _tree(run)
    (run / "artifacts" / "summary.json").unlink()
    assert main(env["base"] + [*_args(paths, VQ), "--epochs", "2", "--resume"]) == 0
    assert _tree(run) == before


def test_a_recording_that_vanishes_mid_run_exits_3_and_the_run_resumes(
    env, tmp_path, capsys, monkeypatch
):
    # vq reads its recordings at every step: one removed after epoch 0's checkpoint
    data = tmp_path / "data"
    shutil.copytree(env["data"], data)
    gone, hidden = data / "sample_0002", tmp_path / "sample_0002"
    real_save = training.save_stage_checkpoint

    def save_then_remove(run_dir, model, opt, stage, epoch, step, extra):
        path = real_save(run_dir, model, opt, stage, epoch, step, extra)
        if epoch == 0:
            gone.rename(hidden)
        return path

    monkeypatch.setattr(training, "save_stage_checkpoint", save_then_remove)
    run = tmp_path / "run"
    train = ["train", "--stage", "vq", "--data", str(data)]
    argv = env["base"] + ["--out", str(run), *train]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(gone) in err[0]
    assert (run / "checkpoints" / "epoch_0000" / "manifest.json").is_file()
    assert not (run / "checkpoints" / "epoch_0001").exists()
    hidden.rename(gone)
    monkeypatch.setattr(training, "save_stage_checkpoint", real_save)
    assert main(argv + ["--resume"]) == 0
    steps = [row.split(",")[0] for row in (run / "metrics.csv").read_text().splitlines()[1:]]
    assert steps == [str(k) for k in range(1, 9)]
    assert (run / "checkpoints" / "epoch_0001" / "manifest.json").is_file()


def test_train_runs_with_every_zero_allowed_value_at_zero(env, tmp_path):
    zeros = ["--seed", "0"]
    for key in ("quantizer.beta", "optimizer.weight_decay", "schedule.warmup_steps",
                "schedule.min_lr", "train.lambda_orth"):
        zeros += ["--set", f"{key}=0"]
    vq, cpt = tmp_path / "vq", tmp_path / "cpt"
    assert main(env["base"] + zeros + [
        "--out", str(vq), "train", "--stage", "vq", "--data", str(env["data"]), "--epochs", "1",
    ]) == 0
    assert main(env["base"] + zeros + [
        "--out", str(cpt), "train", "--stage", "cpt", "--data", str(env["data"]), "--epochs", "1",
        "--init-from", str(vq / "checkpoints" / "epoch_0000"),
    ]) == 0


def test_train_sft_checks_its_labels_before_it_tokenizes(env, tmp_path, monkeypatch):
    # the refusal itself is the row sft-foreign-label
    calls = []
    real_tokenize = training.PipelineModel.tokenize_recording
    monkeypatch.setattr(training.PipelineModel, "tokenize_recording",
                        lambda model, rec: calls.append(rec) or real_tokenize(model, rec))
    paths = _case(env, tmp_path, *FOREIGN_LABEL)
    assert main(env["base"] + _args(paths, SFT_FOREIGN_LABEL)) == 3
    assert calls == []


def test_stored_config_missing_keys_take_the_defaults(env, tmp_path):
    _case(env, tmp_path, CKPT_VQ, edit(MANIFEST, ("meta", "config", "refiner", "n_heads"), DELETE),
          edit(MANIFEST, ("meta", "config", "quantizer", "revival_epochs"), DELETE))
    model, _ = load_model(tmp_path / "ckpt")
    assert model.cfg["refiner"]["n_heads"] == DEFAULTS["refiner"]["n_heads"]
    assert model.refiner.cfg.n_heads == DEFAULTS["refiner"]["n_heads"]
    assert model.quantizer.cfg.revival_epochs == DEFAULTS["quantizer"]["revival_epochs"]


def test_init_from_reads_a_checkpoint_whose_config_holds_a_removed_key(env, tmp_path):
    # --init-from reads the weights and the stage, not the stored config
    _case(env, tmp_path, CKPT_VQ, edit(MANIFEST, ("meta", "config", "quantizer", "kmeans_warm_start"), True))
    rc = main(env["base"] + [
        "--out", str(tmp_path / "cpt"), "train", "--stage", "cpt", "--data", str(env["data"]),
        "--init-from", str(tmp_path / "ckpt"), "--epochs", "1",
    ])
    assert rc == 0
    weights = Path("checkpoints", "epoch_0000", "weights.bin")
    assert (tmp_path / "cpt" / weights).read_bytes() == (env["runs"]["cpt"] / weights).read_bytes()


def test_eval_report_shape(env, tmp_path, capsys):
    rc = main(env["base"] + [
        "--out", str(tmp_path / "ev"), "eval",
        "--checkpoint", str(env["ckpt_sft"]), "--data", str(env["eval_data"]),
    ])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert tuple(printed["metrics"]) == BINARY_METRICS
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert report["n_samples"] == 4
    assert report["metrics"] == printed["metrics"]


def test_eval_report_equals_the_one_sample_at_a_time_oracle_to_the_byte(env, tmp_path):
    # 10 samples, so two chunks, and 3 s recordings among 2 s ones, so two
    # patch shapes in each chunk
    data, longer = tmp_path / "data", tmp_path / "longer"
    make_dataset(data, n_per_class=5, classes=("class-a", "class-b"), montage="synthetic-2", seconds=2.0, seed=4)
    make_dataset(longer, n_per_class=2, classes=("class-a", "class-b"), montage="synthetic-2", seconds=3.0, seed=5)
    for i, name in enumerate(("sample_0001", "sample_0006", "sample_0008")):
        shutil.rmtree(data / name)
        shutil.copytree(longer / f"sample_{i:04d}", data / name)
    argv = ["--out", str(tmp_path / "ev"), "eval", "--checkpoint", str(env["ckpt_sft"]), "--data", str(data)]
    assert main(env["base"] + argv) == 0
    oracle = oracles.evaluate_one_at_a_time(env["ckpt_sft"], data)
    assert oracle["n_samples"] == 10
    assert (tmp_path / "ev" / "report.json").read_text() == json.dumps(oracle, indent=2)


# -- attn-export ---------------------------------------------------------------


def read_attn(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(ATTN_HEADER)
    return [(int(e), ch, int(p), float(w)) for e, ch, p, w in rows[1:]]


def test_attn_export_rows_and_normalization(env, tmp_path):
    sample = env["data"] / "sample_0000"
    prof_dir = tmp_path / "prof"
    assert main(env["base"] + [
        "--out", str(prof_dir), "profile", "--container", str(sample),
    ]) == 0
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        rc = main(env["base"] + [
            "--out", str(out), "attn-export",
            "--checkpoint", str(env["ckpt_sft"]), "--container", str(sample),
            "--profile", str(prof_dir / "profile.json"),
        ])
        assert rc == 0
    rows = read_attn(outs[0])
    assert len(rows) == 2 * 2 * 2  # experts x channels x patches
    sums: dict[tuple[int, int], float] = {}
    for expert, _, patch_idx, weight in rows:
        assert weight >= 0.0
        sums[(expert, patch_idx)] = sums.get((expert, patch_idx), 0.0) + weight
    for total in sums.values():
        assert total == pytest.approx(1.0, abs=1e-6)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_attn_export_stub_profile_fallback(env, tmp_path):
    out = tmp_path / "attn.csv"
    rc = main(env["base"] + [
        "--out", str(out), "attn-export",
        "--checkpoint", str(env["ckpt_sft"]),
        "--container", str(env["data"] / "sample_0001"),
    ])
    assert rc == 0
    assert len(read_attn(out)) == 8


# -- refused inputs ------------------------------------------------------------
#
# Every input the CLI refuses, one row each, and one check for all of them:
# the exit code of README's table (never 1), one `error:` line on stderr that
# holds the row's fragment, and every file under the case's directory and the
# toy chain kept as it was, with none added. A row's setup writes the bad
# input under the case's directory; its argv and fragment name paths as
# "{case}/..." and by the keys of `env`.

DELETE = object()  # an `edit` value that removes the key


def _path(env, template: str) -> Path:
    return Path(template.format(**env))


def copy(src: str, dst: str):
    """Copy the file or directory `src` to `dst`."""
    def step(env):
        source, target = _path(env, src), _path(env, dst)
        target.parent.mkdir(parents=True, exist_ok=True)
        (shutil.copytree if source.is_dir() else shutil.copy)(source, target)
    return step


def edit(path: str, keys: tuple, value):
    """Set the entry at `keys` of the JSON file `path` (the document itself
    for no keys) to `value`; to `value(entry)` for a callable, and remove
    it for DELETE."""
    def step(env):
        file = _path(env, path)
        box = [json.loads(file.read_text())]
        *parents, last = (0, *keys)
        node = box
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value(node[last]) if callable(value) else value
        file.write_text(json.dumps(box[0]))
    return step


def write(path: str, data: str | bytes, mode: str = "w"):
    """Write `data` to the file `path` in `mode`: "a" or "ab" appends, "r+b"
    overwrites its first bytes."""
    def step(env):
        file = _path(env, path)
        file.parent.mkdir(parents=True, exist_ok=True)
        with open(file, mode) as f:
            f.write(data)
    return step


def remove(path: str):
    def step(env):
        target = _path(env, path)
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink()
    return step


def run(*argv: str):
    """Run a command, which must succeed."""
    def step(env):
        assert main(env["base"] + _args(env, argv)) == 0
    return step


def recording(path: str, fs: float, samples: int):
    """A 2-channel container of `samples` random samples at `fs`."""
    def step(env):
        data = np.random.default_rng(0).standard_normal((2, samples))
        save_container(Recording(("X0", "X1"), fs, data), _path(env, path))
    return step


def old_layout(path: str):
    """Rewrite the checkpoint `path` in place in the old moments layout."""
    return lambda env: _old_layout(_path(env, path), _path(env, path))


def _case(env: dict, case: Path, *setup) -> dict:
    """`env` with the case's directory as "case", after its setup ran."""
    env = {**env, "case": case}
    for step in setup:
        step(env)
    return env


def _args(env: dict, argv) -> list[str]:
    return [a.format(**env) for a in argv]


def _tree(root: Path) -> dict:
    """Every path under `root`: a file's bytes, None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class Refusal(NamedTuple):
    id: str
    code: int
    fragment: str | tuple  # or several, each of which the line holds
    argv: list
    setup: tuple = ()
    parser: bool = False  # refused by argparse, which prints its usage first


def synth(out="{case}/ds", per_class="1", montage="synthetic-2"):
    return ["--out", out, "synth", "--per-class", per_class, "--montage", montage]


def train(stage, data="{data}", init_from=None, out="{case}/run"):
    init = ["--init-from", init_from] if init_from else []
    return ["--out", out, "train", "--stage", stage, "--data", data, *init]


def tokenize(container="{sample}", checkpoint="{case}/ckpt", out="{case}/t.tok"):
    return ["--out", out, "tokenize", "--container", container, "--checkpoint", checkpoint]


def evaluate(checkpoint="{case}/ckpt", data="{eval_data}", out="{case}/ev"):
    return ["--out", out, "eval", "--checkpoint", checkpoint, "--data", data]


def attn_export(checkpoint="{ckpt_sft}", container="{sample}", profile=None):
    extra = ["--profile", profile] if profile else []
    return ["--out", "{case}/x.csv", "attn-export", "--checkpoint", checkpoint, "--container", container, *extra]


def preprocess(source, *flags):
    return ["--out", "{case}/out", "preprocess", source, *flags]


def profile(container="{sample}"):
    return ["--out", "{case}/p", "profile", "--container", container]


SYNTH, VQ = synth(), train("vq")
RESUME = [*VQ, "--epochs", "3", "--resume"]

# setups: copies under {case} of the toy chain's files, and the files they edit
MANIFEST = "{case}/ckpt/manifest.json"  # of the copy CKPT_VQ or CKPT_SFT makes
CKPT_VQ, CKPT_SFT = copy("{ckpt_vq}", "{case}/ckpt"), copy("{ckpt_sft}", "{case}/ckpt")
CONTAINER = "{case}/sample/manifest.json"  # of the copy SAMPLE makes
SAMPLE = copy("{sample}", "{case}/sample")
NEWEST = "{case}/run/checkpoints/epoch_0001/manifest.json"  # of the copy RUN makes
RUN = copy("{runs[vq]}", "{case}/run")  # the toy chain's finished 2-epoch vq run
CSV = write("{case}/rec.csv", "t,X0,X1\n" + "".join(
    f"{i / 250},{np.sin(i / 10)},{np.cos(i / 10)}\n" for i in range(500)
))
WIDE = run(*synth("{case}/wide", montage="synthetic-3"))  # 3 channels against the 2 configured
WIDE_SAMPLE = "{case}/wide/sample_0000"
FOREIGN_LABEL = (copy("{data}", "{case}/data"), write(
    "{case}/data/labels.csv",
    "name,label\nsample_0000,class-a\nsample_0001,class-b\nsample_0002,class-a\nsample_0003,class-z\n",
))
SFT_FOREIGN_LABEL = train("sft", "{case}/data", "{ckpt_cpt}")
MONTAGE_FILE = "{case}/montage.json"
TWO_ASSIGNED = {"A": {"band": "central", "zone": "left"}, "B": {"band": "central", "zone": "right"}}


def montage_file(payload):
    return write(MONTAGE_FILE, json.dumps(payload))


def _second_entry_at_anothers_offset(params):
    # later entries once won, so the positions read the feed-forward's bytes
    entries = {e["name"]: e for e in params}
    offset = entries["encoder.global_blocks.0.ffn.fc1.w"]["offset"]
    return params + [{**entries["encoder.positions.table"], "offset": offset}]


def _entry_at_the_offset_of_the_one_before(params):
    entries = {e["name"]: e for e in params}
    entries["encoder.global_blocks.1.ffn.fc1.w"]["offset"] = entries["encoder.global_blocks.0.ffn.fc1.w"]["offset"]
    return params


# values of another type than their default's
MISTYPED = [
    ('train.epochs="abc"', "train.epochs"),
    ("optimizer.lr=null", "optimizer.lr"),
    ("train.epochs=2.5", "train.epochs"),
    ("train.epochs=true", "train.epochs"),  # bool is never a number
    ('train.lambda_orth="a"', "train.lambda_orth"),
    ('optimizer.betas="x"', "optimizer.betas"),
    ("optimizer.betas=[0.9]", "optimizer.betas"),
    ("optimizer.betas=[0.9, true]", "optimizer.betas"),
    ("data.classes=[1, 2]", "data.classes"),
    ("data.montage=4", "data.montage"),
]

# each once ended in a traceback, trained without complaint, or failed (exit
# 5) after writing its run directory before every number had its bound
OUT_OF_BOUNDS = [
    "refiner.ffn_mult=-1", "encoder.ffn_mult=0", "optimizer.eps=-1", "optimizer.betas=[2,0.5]",
    "schedule.warmup_steps=-5", "quantizer.beta=-1", "quantizer.revival_epochs=0", "backbone.max_len=0",
    "backbone.embed_dim=0", "lora.alpha=-3", "train.star_lr_scale=-1", "optimizer.recon_lr_scale=0",
    "schedule.min_lr=-1", "train.lambda_orth=Infinity", "optimizer.lr=NaN", "optimizer.clip_norm=NaN",
    "quantizer.beta=NaN",
]

# each once read as a (2, 5) array or ended in a numpy traceback
SHAPES = {"negative": [2, -3], "all-negative": [-2, -3], "string": "ab", "float": [2.5, 2],
          "nested": [[2], 3], "bool": [True, 2], "scalar": 6}
# each once read as weights: garbage, or another entry's bytes for "4"
OFFSETS = {"float": 2.5, "bool": True, "unaligned": 1, "string": "4"}

# a stored config the model cannot be built from: (id, keys, value, named)
STORED_CONFIGS = [
    ("out-of-bounds", ("refiner", "ffn_mult"), -1, "refiner.ffn_mult"),
    ("mistyped", ("encoder", "embed_dim"), "x", "config key 'encoder.embed_dim' must match the type of 16"),
    ("table-a-number", ("quantizer",), 5, "config key 'quantizer' must be a table"),
    ("heads-do-not-split", ("encoder", "n_heads"), 3, "feature dim 8 not divisible by 3 heads"),
    ("label-twice", ("data", "classes"), ["class-a", "class-a"], "data.classes names the label 'class-a' twice"),
    # a key of an earlier config, written by a checkpoint from before its removal
    ("removed-key", ("quantizer", "kmeans_warm_start"), True, "unknown config key 'quantizer.kmeans_warm_start'"),
]

# each a switch of an earlier config whose one value in use became a constant
REMOVED_KEYS = ["quantizer.kmeans_warm_start", "train.class_balancing", "backbone.tied_head"]

# the newest checkpoint's metadata damaged, each once a traceback with exit 1: (id, keys, value, named)
DAMAGED_META = [
    ("without-epoch", ("meta", "epoch"), DELETE, "meta 'epoch' is None, not an int >= 0"),
    ("epoch-a-string", ("meta", "epoch"), "x", "meta 'epoch' is 'x', not an int >= 0"),
    ("step-null", ("meta", "step"), None, "meta 'step' is None, not an int >= 0"),
    ("step-negative", ("meta", "step"), -1, "meta 'step' is -1, not an int >= 0"),
    ("epoch-avg-loss-a-number", ("meta", "epoch_avg_loss"), 5, "meta 'epoch_avg_loss' is 5, not a list"),
    ("meta-a-string", ("meta",), "x", "meta 'x' is not a JSON object"),
]

# each stage's toy run copied under {case}: its setup, its newest checkpoint and its --resume
RESUMABLE = {
    "vq": (RUN, "{case}/run/checkpoints/epoch_0001", RESUME),
    **{stage: (copy(f"{{runs[{stage}]}}", "{case}/run"), "{case}/run/checkpoints/epoch_0000",
               [*train(stage), "--epochs", "2", "--resume"]) for stage in ("cpt", "sft")},
}
CPT_AVGS = "dict(s) of finite total, text, eeg, orth"

# the newest checkpoint's epoch_avg_loss not one entry per epoch of the form
# its stage writes: each was once resumed past, ["x", 1.0] into a traceback
# with exit 1 from vq's summary after config.json was written: (stage, id, value, named)
EPOCH_AVGS = [
    ("vq", "a-string", ["x", 1.0], "is ['x', 1.0], not a list of 2 finite number(s)"),
    ("vq", "one-short", [1.0], "is [1.0], not a list of 2 finite number(s)"),
    ("vq", "infinite", [1.0, float("inf")], "is [1.0, inf], not a list of 2 finite number(s)"),
    ("vq", "a-bool", [1.0, True], "is [1.0, True], not a list of 2 finite number(s)"),
    ("cpt", "numbers", [1.0], f"is [1.0], not a list of 1 {CPT_AVGS}"),
    ("cpt", "empty", [], f"is [], not a list of 1 {CPT_AVGS}"),
    ("cpt", "without-orth", [{"total": 1.0, "text": 1.0, "eeg": 0.0}], f"not a list of 1 {CPT_AVGS}"),
    ("cpt", "a-string-total", [{"total": "x", "text": 1.0, "eeg": 0.0, "orth": 0.0}], f"not a list of 1 {CPT_AVGS}"),
    ("sft", "a-string", ["x"], "is ['x'], not a list of 1 finite number(s)"),
    ("sft", "nan", [float("nan")], "is [nan], not a list of 1 finite number(s)"),
    ("sft", "a-dict", [{"total": 1.0}], "not a list of 1 finite number(s)"),
]

FOREIGN_MONTAGE = {
    "vq": train("vq", "{case}/wide"),
    "cpt": train("cpt", "{case}/wide", "{ckpt_vq}"),
    "sft": train("sft", "{case}/wide", "{ckpt_cpt}"),
    "eval": evaluate("{ckpt_sft}", "{case}/wide"),
    "tokenize": tokenize(WIDE_SAMPLE, "{ckpt_vq}"),
    "profile": profile(WIDE_SAMPLE),
    "attn-export": attn_export(container=WIDE_SAMPLE),
}

EVAL_DATA, EVAL_COPY = copy("{eval_data}", "{case}/data"), evaluate("{ckpt_sft}", "{case}/data")
# 10 samples, the 10th (in eval's second chunk) of 3 channels against the 2 configured
MIXED_MONTAGES = (run(*synth("{case}/data", per_class="5")), WIDE, remove("{case}/data/sample_0009"),
                  copy(WIDE_SAMPLE, "{case}/data/sample_0009"))
MIXED_MONTAGE_READERS = {
    "eval": EVAL_COPY,
    "vq": train("vq", "{case}/data"),
    "cpt": train("cpt", "{case}/data", "{ckpt_vq}"),
    "sft": train("sft", "{case}/data", "{ckpt_cpt}"),
}
LABELS = "label file {case}/data/labels.csv"  # of the copy EVAL_DATA makes
ATTN_PROFILE = attn_export(profile="{case}/profile.json")
BAD_CONFIG = "checkpoint {case}/ckpt holds a bad config: "
OUT_A_FILE = "--out {case}/file: {case}/file exists and is not a directory"
HOLDS_A_DATASET = "{case}/ds already holds a dataset"
BAD_RATE = "sampling rate must be positive and finite"
NOT_THE_MONTAGE = "do not match the montage"

REFUSED = [
    # -- argv and config
    Refusal("unknown-subcommand", 2, "invalid choice: 'frobnicate'", ["frobnicate"], parser=True),
    Refusal("synth-without-out", 2, "command 'synth' needs --out", ["synth"]),
    Refusal("unknown-override", 2, "unknown config key 'nope'", ["--set", "nope=1", *SYNTH]),
    *(Refusal(f"set-{spec}", 2, key, ["--set", spec, *SYNTH]) for spec, key in MISTYPED),
    Refusal("synth-label-twice", 2, "data.classes names the label 'class-a' twice",
            ["--set", 'data.classes=["class-a","class-b","class-a"]', *SYNTH]),
    Refusal("train-label-twice", 2, "data.classes names the label 'class-a' twice",
            ["--set", 'data.classes=["class-a","class-b","class-a"]', *VQ, "--epochs", "1"]),
    *(Refusal(f"train-{spec}", 2, spec.split("=")[0], ["--set", spec, *VQ]) for spec in OUT_OF_BOUNDS),
    Refusal("train-seed-negative", 2, "seed", ["--seed", "-1", *VQ]),
    Refusal("train-cpt-optimizer.betas=[0.9,1.0]", 2, "optimizer.betas",
            ["--set", "optimizer.betas=[0.9,1.0]", *train("cpt", init_from="{ckpt_vq}")]),
    *(Refusal(f"train-{spec}", 2, f"not divisible by {spec[-1]} heads", ["--set", spec, *VQ])
      for spec in ("encoder.n_heads=3", "refiner.n_heads=3", "backbone.n_heads=3", "encoder.n_heads=0")),
    # each once ended in a traceback with exit 1, eval and train after their work
    Refusal("out-through-a-file-eval", 2, OUT_A_FILE, evaluate("{ckpt_sft}", out="{case}/file"),
            (write("{case}/file", "kept\n"),)),
    Refusal("out-through-a-file-train", 2, OUT_A_FILE, train("vq", out="{case}/file"),
            (write("{case}/file", "kept\n"),)),
    Refusal("out-through-a-file-synth", 2, "--out {case}/file/ds: {case}/file exists and is not a directory",
            synth("{case}/file/ds"), (write("{case}/file", "kept\n"),)),
    # once a traceback with exit 1 after the tokens were computed
    Refusal("tokenize-out-a-directory", 2, "--out {case} is a directory, not a file",
            tokenize(checkpoint="{ckpt_vq}", out="{case}")),
    Refusal("config-file-not-json", 2, "{case}/config.json", ["--config", "{case}/config.json", *SYNTH],
            (write("{case}/config.json", "{nope"),)),
    Refusal("config-file-a-list", 2, "{case}/config.json", ["--config", "{case}/config.json", *SYNTH],
            (write("{case}/config.json", "[]"),)),
    Refusal("train-unknown-stage", 2, "invalid choice: 'pretrain'", train("pretrain"), parser=True),
    Refusal("tokenize-without-checkpoint", 2, "the following arguments are required: --checkpoint",
            tokenize()[:-2], parser=True),
    Refusal("synth-per-class-not-an-int", 2, "invalid int value: 'two'", synth(per_class="two"), parser=True),
    # -- synth
    Refusal("synth-per-class-zero", 2, "n_per_class must be >= 1", synth(per_class="0")),
    Refusal("synth-unknown-montage", 3, "cannot read montage file nope", synth(montage="nope")),
    *(Refusal(f"synth-{flag}-{value}", 2, f"{flag} must be finite", [*SYNTH, f"--{flag}", value])
      for value in ("nan", "inf") for flag in ("fs", "seconds", "noise")),
    Refusal("synth-negative-product", 2, "fs must be finite and > 0", [*SYNTH, "--fs", "-200", "--seconds", "-2"]),
    Refusal("synth-fs-zero", 2, "fs must be finite and > 0", [*SYNTH, "--fs", "0"]),
    Refusal("synth-seconds-zero", 2, "seconds must be finite and > 0", [*SYNTH, "--seconds", "0"]),
    Refusal("synth-seconds-negative", 2, "seconds must be finite and > 0", [*SYNTH, "--seconds", "-2"]),
    Refusal("synth-noise-negative", 2, "noise must be finite and >= 0", [*SYNTH, "--noise", "-1"]),
    Refusal("synth-no-sample", 2, "yields 0.4 samples, not at least one", [*SYNTH, "--fs", "1", "--seconds", "0.4"]),
    Refusal("synth-class-without-a-tone", 2, "unknown class 'theta-burst'",
            ["--set", 'data.classes=["class-a","theta-burst"]', *SYNTH]),
    # each once exited 0, leaving labels.csv and dataset.json naming fewer samples than the containers
    Refusal("synth-into-a-dataset", 2, HOLDS_A_DATASET, SYNTH, (run(*synth(per_class="2")),)),
    Refusal("synth-into-a-labels-file", 2, HOLDS_A_DATASET, SYNTH, (write("{case}/ds/labels.csv", "name,label\n"),)),
    Refusal("synth-into-a-dataset-manifest", 2, HOLDS_A_DATASET, SYNTH, (write("{case}/ds/dataset.json", "{}"),)),
    Refusal("synth-into-a-container", 2, HOLDS_A_DATASET, SYNTH, (copy("{sample}", "{case}/ds/sample_0000"),)),
    # -- montage files and recordings
    Refusal("montage-without-zone", 3, MONTAGE_FILE, synth(montage=MONTAGE_FILE),
            (montage_file({"labels": ["A"], "assignments": {"A": {"band": "central"}}}),)),
    Refusal("montage-labels-a-string", 3, MONTAGE_FILE, synth(montage=MONTAGE_FILE),
            (montage_file({"labels": "AB", "assignments": TWO_ASSIGNED}),)),
    Refusal("montage-a-list", 3, MONTAGE_FILE, synth(montage=MONTAGE_FILE),
            (montage_file(["labels", "assignments"]),)),
    Refusal("montage-unknown-band", 3, "electrode 'A' has unknown band 'sideways'", synth(montage=MONTAGE_FILE),
            (montage_file({"labels": ["A"], "assignments": {"A": {"band": "sideways", "zone": "left"}}}),)),
    Refusal("montage-duplicate-label", 3, "duplicate electrode labels: ['A']", synth(montage=MONTAGE_FILE),
            (montage_file({"labels": ["A", "A"], "assignments": TWO_ASSIGNED}),)),
    Refusal("container-samples-a-string", 3, "{case}/sample", preprocess("{case}/sample"),
            (SAMPLE, edit(CONTAINER, ("samples",), "many"))),
    Refusal("container-channels-a-string", 3, "{case}/sample", preprocess("{case}/sample"),
            (SAMPLE, edit(CONTAINER, ("channels",), "AB"))),
    Refusal("container-manifest-a-list", 3, "{case}/sample", preprocess("{case}/sample"),
            (SAMPLE, edit(CONTAINER, (), list))),  # a JSON array of the manifest's key names
    *(Refusal(f"container-fs-{value}-{command}", 3, BAD_RATE, read("{case}/sample"),
              (SAMPLE, edit(CONTAINER, ("fs",), float(value))))
      for command, read in (("preprocess", preprocess), ("profile", profile)) for value in ("nan", "inf")),
    Refusal("preprocess-csv-without-fs", 2, "CSV ingest needs an explicit sampling rate",
            preprocess("{case}/rec.csv"), (CSV,)),
    *(Refusal(f"preprocess-csv-fs-{value}", 3, BAD_RATE, preprocess("{case}/rec.csv", "--fs", value), (CSV,))
      for value in ("nan", "inf")),
    *(Refusal(f"preprocess-target-fs-{value}", 2, BAD_RATE,
              preprocess("{case}/rec.csv", "--fs", "250", "--target-fs", value), (CSV,)) for value in ("nan", "inf")),
    Refusal("preprocess-csv-a-nan", 3, "{case}/bad.csv", preprocess("{case}/bad.csv", "--fs", "250"),
            (write("{case}/bad.csv", "t,X0\n0.0,1.0\n0.004,nan\n"),)),
    Refusal("preprocess-csv-a-short-row", 3, "{case}/bad.csv", preprocess("{case}/bad.csv", "--fs", "250"),
            (write("{case}/bad.csv", "t,X0,X1\n0.0,1.0,2.0\n0.004,1.0\n"),)),
    Refusal("preprocess-csv-a-word", 3, "{case}/bad.csv: malformed CSV", preprocess("{case}/bad.csv", "--fs", "250"),
            (write("{case}/bad.csv", "t,X0\n0,abc\n0.004,1\n"),)),
    Refusal("preprocess-csv-empty", 3, "{case}/bad.csv: empty file", preprocess("{case}/bad.csv", "--fs", "250"),
            (write("{case}/bad.csv", ""),)),
    *(Refusal(f"preprocess-csv-header-{name}", 3, f"{{case}}/bad.csv: {named}", preprocess("{case}/bad.csv", "--fs", "250"),
              (write("{case}/bad.csv", f"{header}\n0.0,1.0,2.0\n0.004,1.0,2.0\n"),)) for name, header, named in [
        ("of-time-alone", "t", "need a time column plus at least one channel"),
        ("without-a-label", "t,,X1", "header column 2 has no channel label"),
        ("of-a-blank-label", "t,X0, ", "header column 3 has no channel label"),
        ("naming-a-label-twice", "t,X0,X0", "header names channel 'X0' twice"),
    ]),
    *(Refusal(f"preprocess-band-{name}", 2, "band edges must satisfy 0 < low < high < fs/2",
              preprocess("{sample}", *flags)) for name, flags in [
        ("crossed", ("--low", "80", "--high", "10")),
        *((f"low-{low}", ("--low", low)) for low in ("0", "-5", "nan")),
        *((f"high-{high}", ("--high", high)) for high in ("100", "150", "nan", "inf")),  # fs/2 is 100
    ]),
    *(Refusal(f"preprocess-notch-{notch}", 2, f"notch {notch} Hz must lie inside the pass band",
              preprocess("{sample}", "--notch", notch)) for notch in ("150.0", "-5.0", "nan")),
    Refusal("container-signal-cut-short", 3, "extent mismatch in {case}/sample/signal.bin",
            preprocess("{case}/sample"), (SAMPLE, write("{case}/sample/signal.bin", bytes(100), "wb"))),
    Refusal("container-signal-too-long", 3, "extent mismatch in {case}/sample/signal.bin",
            preprocess("{case}/sample"), (SAMPLE, write("{case}/sample/signal.bin", bytes(3200), "ab"))),
    Refusal("container-dtype-f64le", 3, "unsupported dtype 'f64le'", preprocess("{case}/sample"),
            (SAMPLE, edit(CONTAINER, ("dtype",), "f64le"))),
    # 200/1e12 has no fraction with a denominator up to 1000 but 0; 200/3e5
    # = 1/1500 would be held as 1/1000, resampled to 300 Hz and labelled 200
    *(Refusal(f"preprocess-fs-{fs:g}", 3, f"cannot resample fs={fs} Hz to 200.0 Hz", preprocess("{case}/rec"),
              (recording("{case}/rec", fs, 60_000),)) for fs in (1e12, 3e5)),
    # the resampler extends past both ends along the line through the first
    # and last samples; one sample has no such line, which is no filter fault
    Refusal("preprocess-one-sample", 3, "cannot resample a 1-sample recording at fs=100.0 Hz: the end extension "
            "is the line through its first and last samples, which needs 2", preprocess("{case}/rec"),
            (recording("{case}/rec", 100.0, 1),)),
    *(Refusal(f"foreign-montage-{command}", 3, NOT_THE_MONTAGE, argv, (WIDE,))
      for command, argv in FOREIGN_MONTAGE.items()),
    Refusal("tokenize-a-19-channel-recording", 3, NOT_THE_MONTAGE, tokenize(WIDE_SAMPLE, "{ckpt_vq}"),
            (run(*synth("{case}/wide", montage="builtin-1020")),)),
    # as many channels as the data, under other names
    Refusal("vq-a-montage-file-of-other-names", 3, NOT_THE_MONTAGE, ["--set", f"data.montage={MONTAGE_FILE}", *VQ],
            (montage_file({"labels": ["A", "B"], "assignments": TWO_ASSIGNED}),)),
    Refusal("vq-montage-builtin-1020", 3, NOT_THE_MONTAGE, ["--set", "data.montage=builtin-1020", *VQ]),
    # -- datasets
    Refusal("train-missing-data", 3, "{case}/absent", train("vq", "{case}/absent")),
    Refusal("sft-foreign-label", 3, "'class-z' of sample 'sample_0003' not in configured classes",
            SFT_FOREIGN_LABEL, FOREIGN_LABEL),
    Refusal("eval-labels-name-a-sample-twice", 3, f"{LABELS} names sample 'sample_0000' twice", EVAL_COPY,
            (EVAL_DATA, write("{case}/data/labels.csv", "sample_0000,class-b\n", "a"))),
    Refusal("eval-label-without-a-container", 3, f"{LABELS} names sample 'sample_0003' on line 5", EVAL_COPY,
            (EVAL_DATA, remove("{case}/data/sample_0003"))),
    Refusal("eval-labels-without-a-header", 3, f"{LABELS} must start with a 'name,label' header", EVAL_COPY,
            (EVAL_DATA, write("{case}/data/labels.csv", "sample_0000,class-a\n"))),
    Refusal("eval-label-row-of-three-fields", 3, "malformed label row", EVAL_COPY,
            (EVAL_DATA, write("{case}/data/labels.csv", "sample_0000,class-a,x\n", "a"))),
    *(Refusal(f"mixed-montages-{command}", 3, NOT_THE_MONTAGE, argv, MIXED_MONTAGES)
      for command, argv in MIXED_MONTAGE_READERS.items()),
    # -- checkpoints
    Refusal("checkpoint-without-weights", 3, "cannot read checkpoint weights in {case}/ckpt", tokenize(),
            (CKPT_VQ, remove("{case}/ckpt/weights.bin"))),
    Refusal("checkpoint-entry-past-the-end", 3, "weights.bin holds", tokenize(),
            (CKPT_VQ, edit(MANIFEST, ("params", -1, "shape"), [10**6]))),
    *(Refusal(f"checkpoint-shape-{name}", 3, "shape", train("cpt", init_from="{case}/ckpt"),
              (CKPT_VQ, edit(MANIFEST, ("params", 0, "shape"), shape))) for name, shape in SHAPES.items()),
    Refusal("tokenize-checkpoint-shape-negative", 3, "not a list of sizes", tokenize(),
            (CKPT_VQ, edit(MANIFEST, ("params", 0, "shape"), [2, -3]))),
    *(Refusal(f"checkpoint-offset-{name}", 3, "offset", attn_export("{case}/ckpt"),
              (CKPT_SFT, edit(MANIFEST, ("params", 1, "offset"), offset))) for name, offset in OFFSETS.items()),
    *(Refusal(f"checkpoint-dtype-{name}", 3, "dtype", evaluate(), (CKPT_SFT, edit(MANIFEST, ("dtype",), dtype)))
      for name, dtype in (("float64", "<f8"), ("big-endian", ">f4"), ("null", None))),
    Refusal("init-from-manifest-a-list", 3, "{case}/ckpt", train("cpt", init_from="{case}/ckpt"),
            (CKPT_VQ, edit(MANIFEST, (), lambda manifest: [manifest]))),
    Refusal("init-from-entry-without-offset", 3, "{case}/ckpt", train("cpt", init_from="{case}/ckpt"),
            (CKPT_VQ, edit(MANIFEST, ("params", 0, "offset"), DELETE))),
    Refusal("init-from-negative-offset", 3, "{case}/ckpt", train("cpt", init_from="{case}/ckpt"),
            (CKPT_VQ, edit(MANIFEST, ("params", 0, "offset"), -4))),
    # each once loaded without complaint, and the first two changed the report
    Refusal("eval-duplicate-entry", 3,
            "checkpoint {case}/ckpt: the manifest lists entry 'encoder.positions.table' twice", evaluate(),
            (CKPT_SFT, edit(MANIFEST, ("params",), _second_entry_at_anothers_offset))),
    Refusal("eval-overlapping-entries", 3,
            "checkpoint {case}/ckpt: entry 'encoder.global_blocks.1.ffn.fc1.w' has offset", evaluate(),
            (CKPT_SFT, edit(MANIFEST, ("params",), _entry_at_the_offset_of_the_one_before))),
    Refusal("eval-extra-bytes", 3,
            ("checkpoint {case}/ckpt: weights.bin holds", "bytes, but its last entry 'opt.v' ends at byte"), evaluate(),
            (CKPT_SFT, write("{case}/ckpt/weights.bin", bytes(8), "ab"))),
    Refusal("eval-a-vq-checkpoint", 3, "evaluation needs a supervised fine-tuning checkpoint, got stage 'vq'",
            ["eval", "--checkpoint", "{ckpt_vq}", "--data", "{eval_data}"]),
    Refusal("tokenize-non-finite-weights", 5, "non-finite", tokenize(),
            (CKPT_VQ, write("{case}/ckpt/weights.bin", np.full(16, np.nan, "<f4").tobytes(), "r+b"))),
    Refusal("tokenize-meta-a-string", 3, "checkpoint {case}/ckpt: meta 'x' is not a JSON object", tokenize(),
            (CKPT_VQ, edit(MANIFEST, ("meta",), "x"))),
    *(Refusal(f"tokenize-stored-config-{name}", 3, f"{BAD_CONFIG}{named}", tokenize(),
              (CKPT_VQ, edit(MANIFEST, ("meta", "config", *keys), value)))
      for name, keys, value, named in STORED_CONFIGS),
    *(Refusal(f"{command}-stored-config-{key}", 3,
              f"{BAD_CONFIG}unknown config key '{key}'", argv,
              (CKPT_SFT, edit(MANIFEST, ("meta", "config", *key.split(".")), True)))
      for command, argv in (("eval", evaluate()), ("attn-export", attn_export("{case}/ckpt")))
      for key in REMOVED_KEYS),
    # -- training runs: a fresh vq run, and the toy chain's vq run copied and resumed
    *(Refusal(f"vq-init-from-{name}", 2, f"vq stage must start from no checkpoint (train.init_from), got {init_from}",
              [*VQ, "--epochs", "1", "--init-from", init_from])
      for name, init_from in (("a-missing-path", "does/not/exist"), ("a-vq-checkpoint", "{ckpt_vq}"))),
    Refusal("train-into-a-run", 2, "{case}/run already holds a run", [*VQ, "--epochs", "1"], (RUN,)),
    Refusal("resume-changing-lr", 2, "but optimizer.lr differ", ["--set", "optimizer.lr=0.5", *RESUME], (RUN,)),
    Refusal("resume-with-fewer-epochs", 2, "asks for 1 epoch(s), fewer than the 2 that",
            [*VQ, "--epochs", "1", "--resume"], (RUN,)),
    Refusal("resume-an-old-layout-checkpoint", 3, "optimizer state 'opt.m'", RESUME,
            (RUN, old_layout("{case}/run/checkpoints/epoch_0001"))),
    *(Refusal(f"resume-{name}", 3, f"checkpoint {{case}}/run/checkpoints/epoch_0001: {named}", RESUME,
              (RUN, edit(NEWEST, keys, value))) for name, keys, value, named in DAMAGED_META),
    # each stage's newest checkpoint naming a parameter its stage does not train
    *(Refusal(f"resume-{stage}-trainable-names-an-unknown-parameter", 3,
              (f"checkpoint {ckpt}", "saved for another trainable set"), argv,
              (setup, edit(f"{ckpt}/manifest.json", ("meta", "trainable"), lambda names: names + ["encoder.nope"])))
      for stage, (setup, ckpt, argv) in RESUMABLE.items()),
    *(Refusal(f"resume-{stage}-epoch-avg-loss-{name}", 3, (f"checkpoint {ckpt}: meta 'epoch_avg_loss' ", named),
              argv, (setup, edit(f"{ckpt}/manifest.json", ("meta", "epoch_avg_loss"), value)))
      for stage, name, value, named in EPOCH_AVGS for setup, ckpt, argv in [RESUMABLE[stage]]),
    # -- profiles
    Refusal("profile-label-leak", 2, "would leak into the prompt",
            ["--set", "data.task_description=tell class-a from the rest", *profile()]),
    # 2 s at these rates rounds to a 0-sample Welch segment
    *(Refusal(f"profile-fs-{fs}", 2, "Welch segment", profile("{case}/sample"),
              (SAMPLE, edit(CONTAINER, ("fs",), fs)))
      for fs in (0.2, 0.25)),
    Refusal("profile-unreachable-endpoint", 4, "profile endpoint unreachable",
            ["--set", "llm.mode=http", "--set", "llm.endpoint=http://127.0.0.1:9/v1", *profile()]),
    Refusal("attn-profile-not-json", 3, "{case}/profile.json", ATTN_PROFILE,
            (write("{case}/profile.json", "{nope"),)),
    Refusal("attn-profile-an-unrelated-key", 3, "{case}/profile.json", ATTN_PROFILE,
            (write("{case}/profile.json", json.dumps({"unrelated": 1})),)),
    *(Refusal(f"attn-profile-{name}", 3, "profile file {case}/profile.json", ATTN_PROFILE,
              (write("{case}/profile.json", json.dumps(payload)),))
      for name, payload in (("a-string", "Feature Summary"), ("a-number", 7))),
    # a profile the profile command wrote, then damaged
    *(Refusal(f"attn-profile-{name}", 3, "profile file {case}/p/profile.json",
              attn_export(profile="{case}/p/profile.json"),
              (run(*profile()), edit("{case}/p/profile.json", (), change))) for name, change in [
        ("with-one-key", lambda record: {"Feature Summary": record["Feature Summary"]}),
        ("of-numbers", lambda record: dict.fromkeys(record, 5)),
    ]),
]


@pytest.mark.parametrize("case", REFUSED, ids=[case.id for case in REFUSED])
def test_a_refused_input_exits_with_its_code_one_error_line_and_no_output(env, tmp_path, capsys, case):
    paths = _case(env, tmp_path, *case.setup)
    before = _tree(tmp_path), _tree(env["root"])
    capsys.readouterr()
    argv = env["base"] + _args(paths, case.argv)
    if case.parser:  # usage lines, then "eeglm: error: ..." or "eeglm <command>: error: ..."
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, prefix, err = exc.value.code, r"eeglm( [\w-]+)?: error: ", capsys.readouterr().err.splitlines()[-1:]
    else:
        code, prefix, err = main(argv), "error: ", capsys.readouterr().err.splitlines()
    assert code == case.code != 1
    fragments = (case.fragment,) if isinstance(case.fragment, str) else case.fragment
    assert len(err) == 1 and re.match(prefix, err[0]) and all(f.format(**paths) in err[0] for f in fragments), err
    assert (_tree(tmp_path), _tree(env["root"])) == before


def test_the_refused_inputs_use_the_exit_codes_readme_gives():
    section = (ROOT / "README.md").read_text().split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    documented = {int(code) for code in re.findall(r"^\| (\d+) \|", section, re.M)}
    used = {case.code for case in REFUSED}
    assert used <= documented
    assert {code for code in documented if 2 <= code <= 5} <= used


IMPORT_PATH_PROBE = """
import json, sys
import eeglm.evaluate, eeglm.training
from eeglm import autodiff, cli
out = sys.argv[1]
synth = ["--out", out + "/raw", "synth", "--per-class", "1", *sys.argv[2:]]
if cli.main(synth) or cli.main(["--out", out + "/clean", "preprocess", out + "/raw/sample_0000"]):
    sys.exit("a command failed")
loaded = sorted(m for m in sys.modules if m.startswith("scipy") or m == "numpy.f2py")
import scipy.special
print(json.dumps({"loaded": loaded, "same_erf": autodiff._erf is scipy.special.erf}))
"""

SCIPY_FIRST_PROBE = """
import json, sys
import scipy.special
ufuncs = sys.modules["scipy.special._special_ufuncs"]
from eeglm import autodiff
print(json.dumps({"same_erf": autodiff._erf is scipy.special.erf,
                  "same_module": sys.modules["scipy.special._special_ufuncs"] is ufuncs}))
"""


def _child_env(**env_vars) -> dict:
    """The environment, with `env_vars`, of a child python that imports this eeglm."""
    src = str(Path(eeglm.__file__).parents[1])
    return dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _probe(code, *args, **env_vars):
    out = subprocess.run([sys.executable, "-c", code, *args], env=_child_env(**env_vars),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_path_loads_only_scipys_erf_extension(tmp_path):
    # `eeglm preprocess` resamples and filters on numpy alone, the
    # profiler's Welch runs on numpy.fft, and gelu's erf comes from scipy's
    # compiled ufunc module alone: not even a 19-channel 500 Hz recording's
    # preprocessing loads scipy.signal, scipy.fft or the scipy.special
    # package (with its scipy._lib._array_api and numpy.f2py)
    probe = _probe(IMPORT_PATH_PROBE, str(tmp_path), *recipe.WIDE_SYNTH)
    assert probe["loaded"] == ["scipy.special._special_ufuncs"]
    assert probe["same_erf"]  # a later `import scipy.special` reuses the ufunc
    assert json.loads((tmp_path / "clean" / "manifest.json").read_text())["fs"] == 200.0


def test_eeglm_imported_after_scipy_special_uses_its_erf():
    assert _probe(SCIPY_FIRST_PROBE) == {"same_erf": True, "same_module": True}


# -- allocator set-up --------------------------------------------------------

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # <malloc.h>, mallopt(3)


class FakeMallopt:
    """Stands in for libc's mallopt: records its calls, reports success."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_malloc_thresholds_are_pinned_by_two_mallopt_calls(monkeypatch):
    libc, opened = SimpleNamespace(mallopt=FakeMallopt()), []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or libc)
    cli._pin_malloc_thresholds()
    assert opened == [None]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert libc.mallopt.calls == [(M_MMAP_THRESHOLD, 32 * 2**20), (M_TRIM_THRESHOLD, 64 * 2**20)]


def _no_library(name):
    raise OSError("no such library")


def _no_default_library(name):
    raise TypeError("expected str, bytes or os.PathLike object, not NoneType")


@pytest.mark.parametrize(
    "cdll",
    [lambda name: object(), _no_library, _no_default_library],
    ids=["no-mallopt", "oserror", "no-default-library"],
)
def test_malloc_thresholds_are_left_alone_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._pin_malloc_thresholds()


def test_main_pins_the_malloc_thresholds(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_pin_malloc_thresholds", lambda: calls.append("pinned"))
    assert main(["synth"]) == 2  # refused for want of --out, after the pin is set
    assert calls == ["pinned"]


# a cpt run in a fresh process: minor page faults per training step
_FAULTS_CHILD = """
import json, resource, sys
from pathlib import Path
from eeglm import checkpoint, cli, training
mode, argv = sys.argv[1], sys.argv[2:]
args = cli.build_parser().parse_args(argv)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if mode == "cli":
    assert cli.main(argv) == 0
else:
    training.run_stage(cli._resolve(args), args.out)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / json.loads(Path(args.out, "artifacts", "summary.json").read_text())["steps"])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_cli_training_steps_reuse_their_freed_heap(tmp_path):
    # the README quick-start sizes, 6 samples: a cpt step frees a tape of
    # several MB, which glibc's default trim threshold hands back each step
    quick = ["--seed", recipe.SEED, *recipe.SET]
    data, vq = tmp_path / "data", tmp_path / "vq"
    synth = recipe.replace(recipe.quick_start()[0], "--out", str(data))
    assert main(recipe.replace(synth, "--per-class", "2")) == 0
    assert main(quick + ["--out", str(vq), "train", "--stage", "vq", "--data", str(data),
                         "--epochs", "1"]) == 0
    env = _child_env(OPENBLAS_NUM_THREADS="1")
    per_step = {}
    for mode in ("library", "cli"):
        argv = quick + ["--out", str(tmp_path / mode), "train", "--stage", "cpt",
                        "--data", str(data), "--epochs", "3",
                        "--init-from", str(vq / "checkpoints" / "epoch_0000")]
        out = subprocess.run([sys.executable, "-c", _FAULTS_CHILD, mode, *argv], env=env,
                             capture_output=True, text=True, check=True)
        per_step[mode] = float(out.stdout.split()[-1])
    assert per_step["cli"] <= per_step["library"] / 4, per_step


# -- BLAS threads ------------------------------------------------------------

BLAS_THREADS_PROBE = """
import ctypes, json, numpy
from eeglm import cli
umath = getattr(numpy, "_core", None) or numpy.core
lib = ctypes.CDLL(umath._multiarray_umath.__file__)
names = [name.replace("_set_", "_get_") for name in cli.BLAS_THREAD_SETTERS]
get = next(filter(None, (getattr(lib, name, None) for name in names)), lambda: None)
before = get()
cli.main(["synth"])  # refused for want of --out, after the pin is set
print(json.dumps({"before": before, "after": get()}))
"""


def test_main_runs_blas_on_one_thread_whatever_the_environment_asks():
    probe = _probe(BLAS_THREADS_PROBE, OPENBLAS_NUM_THREADS="2")
    if probe["after"] is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread getter")
    assert probe["after"] == 1, probe


class FakeSetter:
    """Stands in for OpenBLAS's thread setter: records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, n):
        self.calls.append(n)


@pytest.fixture
def blas_lookup():
    """The setter lookup runs afresh in the test, and again after it."""
    cli._blas_thread_setter.cache_clear()
    yield
    cli._blas_thread_setter.cache_clear()


def test_blas_pin_looks_the_setter_up_once_and_sets_one_thread(monkeypatch, blas_lookup):
    lib, opened = SimpleNamespace(openblas_set_num_threads=FakeSetter()), []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or lib)
    cli._pin_blas_threads()
    cli._pin_blas_threads()
    assert len(opened) == 1 and "_multiarray_umath" in opened[0]
    assert lib.openblas_set_num_threads.argtypes == (ctypes.c_int,)
    assert lib.openblas_set_num_threads.calls == [1, 1]


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_library], ids=["no-setter", "oserror"])
def test_blas_pin_does_nothing_without_a_setter(monkeypatch, blas_lookup, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._pin_blas_threads()
    assert cli._blas_thread_setter() is None


# a vq run, then a cpt run from its last checkpoint, in the current directory
_CHAIN_CHILD = """
import sys
from eeglm import cli
data, argv = sys.argv[1], sys.argv[2:]
train = [*argv, "train", "--data", data, "--epochs", "2", "--stage"]
vq = cli.main(["--out", "vq", *train, "vq"])
sys.exit(vq or cli.main(["--out", "cpt", *train, "cpt", "--init-from", "vq/checkpoints/epoch_0001"]))
"""


def test_cli_runs_write_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the quick-start sizes: their products are large enough for OpenBLAS
    # to split them over two threads, which once changed cpt's metrics.csv
    data = tmp_path / "data"
    synth = recipe.replace(recipe.quick_start()[0], "--out", str(data))
    assert main(recipe.replace(synth, "--per-class", "2")) == 0
    trees = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        subprocess.run([sys.executable, "-c", _CHAIN_CHILD, str(data), "--seed", recipe.SEED, *recipe.SET],
                       cwd=cwd, env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
                       check=True)
        trees[threads] = {p.relative_to(cwd): b for p, b in _tree(cwd).items()}
    assert {p.parts[0] for p in trees["1"]} == {"vq", "cpt"}
    assert [p for p in trees["1"].keys() | trees["2"].keys() if trees["1"].get(p) != trees["2"].get(p)] == []
