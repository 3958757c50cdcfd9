"""Command-line surface: layouts, determinism, provenance, and exit codes."""

from __future__ import annotations

import csv
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import eeglm
import recipe
from eeglm import checkpoint, cli, training
from eeglm.checkpoint import load_checkpoint, save_checkpoint
from eeglm.cli import ATTN_HEADER, main
from eeglm.config import DEFAULTS
from eeglm.errors import DataError
from eeglm.evaluate import BINARY_METRICS
from eeglm.profiler import StubClient
from eeglm.signal_io import Recording, load_container, save_container
from eeglm.synth import make_dataset
from eeglm.training import load_model, profile_recording

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
        "ckpt_vq": ckpt_vq,
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


@pytest.mark.parametrize("flag", ["--fs", "--seconds", "--noise"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_refuses_a_non_finite_setting_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "ds"
    rc = main(["--out", str(out), "synth", "--per-class", "1", "--montage", "synthetic-2",
               flag, value])
    assert rc == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--fs", "-200", "--seconds", "-2"], "fs must be finite and > 0"),
        (["--fs", "0"], "fs must be finite and > 0"),
        (["--seconds", "0"], "seconds must be finite and > 0"),
        (["--seconds", "-2"], "seconds must be finite and > 0"),
        (["--noise", "-1"], "noise must be finite and >= 0"),
        (["--fs", "1", "--seconds", "0.4"], "yields 0.4 samples, not at least one"),
    ],
    ids=["negative-product", "fs-zero", "seconds-zero", "seconds-negative", "noise-negative", "no-sample"],
)
def test_synth_refuses_a_setting_out_of_range_and_writes_nothing(tmp_path, capsys, flags, named):
    out = tmp_path / "ds"
    rc = main(["--out", str(out), "synth", "--per-class", "1", "--montage", "synthetic-2", *flags])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_a_class_with_no_tone_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = main(["--out", str(out), "--set", 'data.classes=["class-a","theta-burst"]',
               "synth", "--per-class", "1", "--montage", "synthetic-2"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown class 'theta-burst'")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_a_label_listed_twice_in_data_classes_exits_2_and_writes_nothing(env, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = {
        "synth": ["synth", "--per-class", "1", "--montage", "synthetic-2"],
        "train": ["train", "--stage", "vq", "--data", str(env["data"]), "--epochs", "1"],
    }[command]
    rc = main(env["base"] + ["--set", 'data.classes=["class-a","class-b","class-a"]',
                             "--out", str(out), *args])
    assert rc == 2
    assert "data.classes names the label 'class-a' twice" in capsys.readouterr().err
    assert not out.exists()


def test_synth_needs_out(env, capsys):
    assert main(env["base"] + ["synth"]) == 2
    assert "--out" in capsys.readouterr().err


def test_unknown_override_exits_2(env, tmp_path):
    rc = main(["--out", str(tmp_path / "x"), "--set", "nope=1", "synth"])
    assert rc == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "overrides, code",
    [
        (["--set", 'train.epochs="abc"'], 2),
        (["--set", "optimizer.lr=null"], 2),
        (["--set", "train.epochs=2.5"], 2),
        (["--set", "train.epochs=true"], 2),  # bool is never a number
        (["--set", 'train.lambda_orth="a"'], 2),
        (["--set", 'optimizer.betas="x"'], 2),
        (["--set", "optimizer.betas=[0.9]"], 2),
        (["--set", "optimizer.betas=[0.9, true]"], 2),
        (["--set", "data.classes=[1, 2]"], 2),
        (["--set", "data.montage=4"], 2),
        (list(recipe.SET), 0),
        (["--set", "optimizer.lr=1"], 0),  # an int stands for a float
        (["--set", "train.init_from=null"], 0),
    ],
)
def test_config_values_need_their_defaults_type(tmp_path, overrides, code):
    rc = main(overrides + [
        "--out", str(tmp_path / "ds"), "synth", "--per-class", "1", "--montage", "synthetic-2",
    ])
    assert rc == code


def _montage_without_zone(root):
    path = root / "montage.json"
    path.write_text(json.dumps({"labels": ["A"], "assignments": {"A": {"band": "central"}}}))
    return ["synth", "--per-class", "1", "--montage", str(path)]


def _container_with_bad_samples(root):
    make_dataset(root / "ds", n_per_class=1, classes=("class-a",), montage="synthetic-2", seed=0)
    manifest = root / "ds" / "sample_0000" / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "samples": "many"}))
    return ["preprocess", str(manifest.parent)]


def _checkpoint_manifest(edit):
    def build(root, env):
        ckpt = root / "ckpt"
        arrays, meta = load_checkpoint(env["ckpt_vq"])
        save_checkpoint(ckpt, arrays, meta)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        (ckpt / "manifest.json").write_text(json.dumps(edit(manifest)))
        return ["train", "--stage", "cpt", "--data", str(env["data"]), "--init-from", str(ckpt)]

    return build


def _drop_first_offset(manifest):
    del manifest["params"][0]["offset"]
    return manifest


def _negative_first_offset(manifest):
    manifest["params"][0]["offset"] = -4
    return manifest


@pytest.mark.parametrize(
    "make_args",
    [
        lambda root, env: _montage_without_zone(root),
        lambda root, env: _container_with_bad_samples(root),
        _checkpoint_manifest(lambda manifest: [manifest]),
        _checkpoint_manifest(_drop_first_offset),
        _checkpoint_manifest(_negative_first_offset),
    ],
    ids=["montage-without-zone", "samples-not-a-number", "manifest-is-a-list",
         "entry-without-offset", "negative-offset"],
)
def test_malformed_json_files_exit_3(env, tmp_path, capsys, make_args):
    args = make_args(tmp_path, env)
    assert main(env["base"] + ["--out", str(tmp_path / "out")] + args) == 3
    assert str(tmp_path) in capsys.readouterr().err  # the message names the file


def _montage_file(payload):
    def build(root):
        path = root / "montage.json"
        path.write_text(json.dumps(payload))
        return ["synth", "--per-class", "1", "--montage", str(path)]

    return build


def _container_manifest(edit):
    def build(root):
        make_dataset(root / "ds", n_per_class=1, classes=("class-a",), montage="synthetic-2", seed=0)
        manifest = root / "ds" / "sample_0000" / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        return ["preprocess", str(manifest.parent)]

    return build


_TWO_ASSIGNED = {"A": {"band": "central", "zone": "left"}, "B": {"band": "central", "zone": "right"}}


@pytest.mark.parametrize(
    "make_args",
    [
        _montage_file({"labels": "AB", "assignments": _TWO_ASSIGNED}),
        _montage_file(["labels", "assignments"]),
        _container_manifest(lambda manifest: {**manifest, "channels": "AB"}),
        _container_manifest(list),  # a JSON array of the manifest's key names
    ],
    ids=["montage-labels-a-string", "montage-is-a-list", "channels-a-string", "manifest-is-a-list"],
)
def test_montage_and_container_files_need_objects_and_lists(env, tmp_path, capsys, make_args):
    args = make_args(tmp_path)
    assert main(env["base"] + ["--out", str(tmp_path / "out")] + args) == 3
    assert str(tmp_path) in capsys.readouterr().err  # the message names the file


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


def test_preprocess_csv_requires_rate(env, tmp_path):
    csv_path = tmp_path / "rec.csv"
    t = np.arange(500) / 250.0
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "X0", "X1"])
        for i, ti in enumerate(t):
            w.writerow([ti, np.sin(ti * 20), np.cos(ti * 20)])
    assert main(env["base"] + ["--out", str(tmp_path / "o1"), "preprocess", str(csv_path)]) == 2
    assert main(env["base"] + [
        "--out", str(tmp_path / "o2"), "preprocess", str(csv_path), "--fs", "250",
    ]) == 0


def test_preprocess_nonfinite_csv_exits_3(env, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,X0\n0.0,1.0\n0.004,nan\n")
    rc = main(env["base"] + ["--out", str(tmp_path / "o"), "preprocess", str(bad), "--fs", "250"])
    assert rc == 3


def _container_with_fs(fs, command):
    def build(root, env):
        sample = root / "sample"
        shutil.copytree(env["data"] / "sample_0000", sample)
        manifest = sample / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "fs": fs}))
        if command == "profile":
            return ["profile", "--container", str(sample)]
        return ["preprocess", str(sample)]

    return build


def _csv_with(*flags):
    def build(root, env):
        path = root / "rec.csv"
        rows = (f"{i / 250},{np.sin(i / 10)},{np.cos(i / 10)}\n" for i in range(500))
        path.write_text("t,X0,X1\n" + "".join(rows))
        return ["preprocess", str(path), *flags]

    return build


@pytest.mark.parametrize(
    "make_args, code",
    [
        (_container_with_fs(float("nan"), "preprocess"), 3),
        (_container_with_fs(float("inf"), "preprocess"), 3),
        (_container_with_fs(float("nan"), "profile"), 3),
        (_container_with_fs(float("inf"), "profile"), 3),
        (_csv_with("--fs", "nan"), 3),
        (_csv_with("--fs", "inf"), 3),
        (_csv_with("--fs", "250", "--target-fs", "nan"), 2),
        (_csv_with("--fs", "250", "--target-fs", "inf"), 2),
    ],
    ids=["manifest-nan-preprocess", "manifest-inf-preprocess", "manifest-nan-profile",
         "manifest-inf-profile", "csv-fs-nan", "csv-fs-inf", "target-fs-nan", "target-fs-inf"],
)
def test_nonfinite_sampling_rate_exits_with_its_code(env, tmp_path, capsys, make_args, code):
    args = make_args(tmp_path, env)
    assert main(env["base"] + ["--out", str(tmp_path / "out")] + args) == code
    assert "sampling rate must be positive and finite" in capsys.readouterr().err


def _container_at(root: Path, fs: float, samples: int) -> Path:
    data = np.random.default_rng(0).standard_normal((2, samples))
    save_container(Recording(channels=("X0", "X1"), fs=fs, data=data), root / "rec")
    return root / "rec"


@pytest.mark.parametrize("fs", [1e12, 3e5])
def test_preprocess_refuses_a_rate_ratio_no_fraction_holds(env, tmp_path, capsys, fs):
    # 200/1e12 has no fraction with a denominator up to 1000 but 0; 200/3e5
    # = 1/1500 would be held as 1/1000, resampled to 300 Hz and labelled 200
    sample = _container_at(tmp_path, fs, 60_000)
    out = tmp_path / "out"
    assert main(env["base"] + ["--out", str(out), "preprocess", str(sample)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"fs={fs} Hz" in err and "to 200.0 Hz" in err
    assert not out.exists()


def test_preprocess_holds_173_61_hz_as_1061_over_921(env, tmp_path):
    # 200/173.61 = 1.1520074; 1061/921 = 1.1520087 is within 1.2e-6 of it
    sample = _container_at(tmp_path, 173.61, 1042)
    out = tmp_path / "out"
    assert main(env["base"] + ["--out", str(out), "preprocess", str(sample)]) == 0
    rec = load_container(out)
    assert rec.fs == 200.0
    assert rec.n_samples == 1200  # floor(1042 * 200 / 173.61)


def test_preprocess_refuses_a_one_sample_recording(env, tmp_path, capsys):
    # the resampler extends past both ends along the line through the first
    # and last samples; one sample has no such line, which is no filter fault
    sample = _container_at(tmp_path, 100.0, 1)
    out = tmp_path / "out"
    assert main(env["base"] + ["--out", str(out), "preprocess", str(sample)]) == 3
    err = capsys.readouterr().err
    assert "1-sample recording at fs=100.0 Hz" in err
    assert "filter" not in err
    assert not out.exists()


def test_preprocess_resamples_two_samples_at_100_hz_to_four(env, tmp_path):
    sample = _container_at(tmp_path, 100.0, 2)
    out = tmp_path / "out"
    assert main(env["base"] + ["--out", str(out), "preprocess", str(sample)]) == 0
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


def test_tokenize_montage_mismatch_exits_3(env, tmp_path):
    other = tmp_path / "wide"
    make_dataset(other, n_per_class=1, classes=("class-a",), montage="synthetic-3", seed=0)
    rc = main(env["base"] + [
        "--out", str(tmp_path / "t.tok"), "tokenize",
        "--container", str(other / "sample_0000"), "--checkpoint", str(env["ckpt_vq"]),
    ])
    assert rc == 3


def test_corrupt_checkpoint_exits_5(env, tmp_path):
    arrays, meta = load_checkpoint(env["ckpt_vq"])
    arrays = dict(arrays)
    name = next(n for n in arrays if n.startswith("encoder."))
    arrays[name] = np.full_like(arrays[name], np.nan)
    broken = tmp_path / "broken"
    save_checkpoint(broken, arrays, meta)
    rc = main(env["base"] + [
        "--out", str(tmp_path / "t.tok"), "tokenize",
        "--container", str(env["data"] / "sample_0000"), "--checkpoint", str(broken),
    ])
    assert rc == 5


def _edited_checkpoint(root: Path, ckpt: Path, edit) -> Path:
    """A copy of `ckpt` under `root` whose manifest `edit` has changed."""
    copy = root / "ckpt"
    shutil.copytree(ckpt, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    edit(manifest)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy


def _with_shape(root: Path, ckpt: Path, shape) -> Path:
    return _edited_checkpoint(root, ckpt, lambda manifest: manifest["params"][0].update(shape=shape))


# each once read as a (2, 5) array or ended in a numpy traceback
@pytest.mark.parametrize(
    "shape",
    [[2, -3], [-2, -3], "ab", [2.5, 2], [[2], 3], [True, 2], 6],
    ids=["negative", "all-negative", "string", "float", "nested", "bool", "scalar"],
)
def test_malformed_manifest_shape_is_refused(env, tmp_path, shape):
    with pytest.raises(DataError, match="shape"):
        load_checkpoint(_with_shape(tmp_path, env["ckpt_vq"], shape))


# each once read as weights: garbage, or another entry's bytes for "4"
@pytest.mark.parametrize("offset", [2.5, True, 1, "4"], ids=["float", "bool", "unaligned", "string"])
def test_malformed_manifest_offset_is_refused(env, tmp_path, offset):
    ckpt = _edited_checkpoint(tmp_path, env["ckpt_vq"], lambda manifest: manifest["params"][1].update(offset=offset))
    with pytest.raises(DataError, match="offset"):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("dtype", ["<f8", ">f4", None], ids=["float64", "big-endian", "null"])
def test_a_manifest_dtype_other_than_little_endian_float32_is_refused(env, tmp_path, dtype):
    ckpt = _edited_checkpoint(tmp_path, env["ckpt_vq"], lambda manifest: manifest.update(dtype=dtype))
    with pytest.raises(DataError, match="dtype") as refused:
        load_checkpoint(ckpt)
    assert refused.value.exit_code == 3


def test_tokenize_with_a_malformed_manifest_shape_exits_3(env, tmp_path, capsys):
    rc = main(env["base"] + [
        "--out", str(tmp_path / "t.tok"), "tokenize",
        "--container", str(env["data"] / "sample_0000"),
        "--checkpoint", str(_with_shape(tmp_path, env["ckpt_vq"], [2, -3])),
    ])
    assert rc == 3
    assert "not a list of sizes" in capsys.readouterr().err
    assert not (tmp_path / "t.tok").exists()


def _second_entry_at_anothers_offset(manifest):
    # later entries once won, so the positions read the feed-forward's bytes
    entries = {e["name"]: e for e in manifest["params"]}
    second = dict(entries["encoder.positions.table"])
    second["offset"] = entries["encoder.global_blocks.0.ffn.fc1.w"]["offset"]
    manifest["params"].append(second)


def _entry_at_the_offset_of_the_one_before(manifest):
    entries = {e["name"]: e for e in manifest["params"]}
    block1 = entries["encoder.global_blocks.1.ffn.fc1.w"]
    block1["offset"] = entries["encoder.global_blocks.0.ffn.fc1.w"]["offset"]


# each once loaded without complaint, and the first two changed the report
@pytest.mark.parametrize(
    "edit, trailing, named",
    [
        (_second_entry_at_anothers_offset, 0, "lists entry 'encoder.positions.table' twice"),
        (_entry_at_the_offset_of_the_one_before, 0,
         "entry 'encoder.global_blocks.1.ffn.fc1.w' has offset"),
        (lambda manifest: None, 8, "but its last entry 'opt.v' ends at byte"),
    ],
    ids=["duplicate-name", "overlapping-entries", "extra-bytes"],
)
def test_eval_refuses_entries_that_do_not_tile_the_weights(env, tmp_path, capsys, edit, trailing, named):
    ckpt = _edited_checkpoint(tmp_path, env["ckpt_sft"], edit)
    with open(ckpt / "weights.bin", "ab") as weights:
        weights.write(bytes(trailing))
    out = tmp_path / "ev"
    rc = main(env["base"] + [
        "--out", str(out), "eval", "--checkpoint", str(ckpt), "--data", str(env["eval_data"]),
    ])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: checkpoint {ckpt}: ") and named in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "out, args",
    [
        ("file", ["eval", "--checkpoint", "{ckpt_sft}", "--data", "{eval_data}"]),
        ("file", ["train", "--stage", "vq", "--data", "{data}"]),
        ("file/ds", ["synth", "--per-class", "1", "--montage", "synthetic-2"]),
    ],
    ids=["eval", "train", "synth"],
)
def test_an_out_through_an_existing_file_exits_2_before_any_work(env, tmp_path, capsys, out, args):
    # each once ended in a traceback with exit 1, eval and train after their work
    (tmp_path / "file").write_text("kept\n")
    argv = [a.format(**env) for a in args]
    assert main(env["base"] + ["--out", str(tmp_path / out), *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --out {tmp_path / out}: {tmp_path / 'file'} exists and is not a directory"]
    assert (tmp_path / "file").read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]


def test_a_file_out_that_is_a_directory_exits_2(env, tmp_path, capsys):
    # once a traceback with exit 1 after the tokens were computed
    rc = main(env["base"] + [
        "--out", str(tmp_path), "tokenize",
        "--container", str(env["data"] / "sample_0000"), "--checkpoint", str(env["ckpt_vq"]),
    ])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --out {tmp_path} is a directory, not a file"]
    assert list(tmp_path.iterdir()) == []


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


def test_profile_label_leak_exits_2(env, tmp_path, capsys):
    rc = main(env["base"] + [
        "--out", str(tmp_path / "p"),
        "--set", "data.task_description=tell class-a from the rest",
        "profile", "--container", str(env["data"] / "sample_0000"),
    ])
    assert rc == 2
    assert "leak" in capsys.readouterr().err


@pytest.mark.parametrize("fs", [0.2, 0.25])
def test_profile_at_a_rate_with_an_empty_welch_segment_exits_2(env, tmp_path, capsys, fs):
    # 2 s at these rates rounds to a 0-sample Welch segment
    sample = tmp_path / "sample"
    shutil.copytree(env["data"] / "sample_0000", sample)
    manifest = sample / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "fs": fs}))
    out = tmp_path / "p"
    rc = main(env["base"] + ["--out", str(out), "profile", "--container", str(sample)])
    assert rc == 2
    assert "Welch segment" in capsys.readouterr().err
    assert not out.exists()


def test_profile_unreachable_endpoint_exits_4(env, tmp_path):
    rc = main(env["base"] + [
        "--out", str(tmp_path / "p"),
        "--set", "llm.mode=http", "--set", "llm.endpoint=http://127.0.0.1:9/v1",
        "profile", "--container", str(env["data"] / "sample_0000"),
    ])
    assert rc == 4


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


@pytest.mark.parametrize("init_from", ["does/not/exist", "vq-checkpoint"])
def test_a_fresh_vq_run_refuses_init_from_and_writes_nothing(env, tmp_path, capsys, init_from):
    # vq has no parent stage; a resumed run may still change train.init_from
    init_from = str(env["ckpt_vq"]) if init_from == "vq-checkpoint" else init_from
    run = tmp_path / "run"
    argv = env["base"] + ["--out", str(run), "train", "--stage", "vq", "--data", str(env["data"])]
    assert main(argv + ["--epochs", "1", "--init-from", init_from]) == 2
    err = capsys.readouterr().err
    assert f"vq stage must start from no checkpoint (train.init_from), got {init_from}" in err
    assert not run.exists()
    assert main(argv + ["--epochs", "1"]) == 0
    assert main(argv + ["--epochs", "2", "--init-from", init_from, "--resume"]) == 0
    assert json.loads((run / "config.json").read_text())["train"]["init_from"] == init_from


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


def test_resume_from_an_old_layout_checkpoint_exits_3_and_changes_nothing(env, tmp_path, capsys):
    run = tmp_path / "run"
    argv = env["base"] + ["--out", str(run), "train", "--stage", "vq", "--data", str(env["data"])]
    assert main(argv + ["--epochs", "1"]) == 0
    ckpt = run / "checkpoints" / "epoch_0000"
    _old_layout(ckpt, ckpt)
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(argv + ["--epochs", "2", "--resume"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "optimizer state 'opt.m'" in err[0]
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


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


def test_train_keeps_one_run_per_directory_with_exit_2(env, tmp_path, capsys):
    run = tmp_path / "run"
    argv = env["base"] + ["--out", str(run), "train", "--stage", "vq", "--data", str(env["data"])]
    assert main(argv + ["--epochs", "1"]) == 0
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(argv + ["--epochs", "1"]) == 2
    assert f"{run} already holds a run" in capsys.readouterr().err
    assert main(["--set", "optimizer.lr=0.5"] + argv + ["--epochs", "2", "--resume"]) == 2
    assert "but optimizer.lr differ" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def test_resume_with_fewer_epochs_than_the_run_holds_exits_2_and_changes_nothing(
    env, tmp_path, capsys
):
    run = tmp_path / "run"
    argv = env["base"] + ["--out", str(run), "train", "--stage", "vq", "--data", str(env["data"])]
    assert main(argv + ["--epochs", "2"]) == 0
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(argv + ["--epochs", "1", "--resume"]) == 2
    assert "asks for 1 epoch(s), fewer than the 2 that" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before
    # a finished run resumed with its own epochs writes its summary again, to the same bytes
    (run / "artifacts" / "summary.json").unlink()
    assert main(argv + ["--epochs", "2", "--resume"]) == 0
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


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


def test_train_missing_data_exits_3(env, tmp_path):
    rc = main(env["base"] + [
        "--out", str(tmp_path / "run"), "train", "--stage", "vq",
        "--data", str(tmp_path / "absent"),
    ])
    assert rc == 3


def _foreign_argv(env, root, command):
    """`command` run on a 3-channel dataset against the 2-channel config."""
    data = root / "wide"
    make_dataset(data, n_per_class=1, classes=("class-a", "class-b"), montage="synthetic-3", seed=0)
    sample = str(data / "sample_0000")
    ckpt_cpt = env["runs"]["cpt"] / "checkpoints" / "epoch_0000"
    return {
        "vq": ["train", "--stage", "vq", "--data", str(data)],
        "cpt": ["train", "--stage", "cpt", "--data", str(data), "--init-from", str(env["ckpt_vq"])],
        "sft": ["train", "--stage", "sft", "--data", str(data), "--init-from", str(ckpt_cpt)],
        "eval": ["eval", "--checkpoint", str(env["ckpt_sft"]), "--data", str(data)],
        "tokenize": ["tokenize", "--container", sample, "--checkpoint", str(env["ckpt_vq"])],
        "profile": ["profile", "--container", sample],
        "attn-export": ["attn-export", "--checkpoint", str(env["ckpt_sft"]), "--container", sample],
    }[command]


@pytest.mark.parametrize(
    "command", ["vq", "cpt", "sft", "eval", "tokenize", "profile", "attn-export"]
)
def test_every_command_refuses_a_foreign_montage_with_exit_3(env, tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = main(env["base"] + ["--out", str(out)] + _foreign_argv(env, tmp_path, command))
    assert rc == 3
    assert "do not match the montage" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("montage", ["file", "builtin-1020"])
def test_train_vq_refuses_a_foreign_montage_and_writes_nothing(env, tmp_path, capsys, montage):
    if montage == "file":
        # as many channels as the data, under other names
        montage = tmp_path / "montage.json"
        montage.write_text(json.dumps({"labels": ["A", "B"], "assignments": _TWO_ASSIGNED}))
    run = tmp_path / "run"
    rc = main(env["base"] + [
        "--set", f"data.montage={montage}",
        "--out", str(run), "train", "--stage", "vq", "--data", str(env["data"]),
    ])
    assert rc == 3
    assert "do not match the montage" in capsys.readouterr().err
    assert not run.exists()


def test_train_sft_refuses_a_foreign_label_before_tokenizing(env, tmp_path, capsys, monkeypatch):
    from eeglm.training import PipelineModel

    data = tmp_path / "data"
    shutil.copytree(env["data"], data)
    labels = (data / "labels.csv").read_text().splitlines()
    name = labels[-1].split(",")[0]
    (data / "labels.csv").write_text("\n".join(labels[:-1] + [f"{name},class-z"]) + "\n")
    calls = []
    real_tokenize = PipelineModel.tokenize_recording

    def counting_tokenize(self, rec):
        calls.append(rec)
        return real_tokenize(self, rec)

    monkeypatch.setattr(PipelineModel, "tokenize_recording", counting_tokenize)
    run = tmp_path / "run"
    rc = main(env["base"] + [
        "--out", str(run), "train", "--stage", "sft", "--data", str(data),
        "--init-from", str(env["runs"]["cpt"] / "checkpoints" / "epoch_0000"),
    ])
    assert rc == 3
    assert f"'class-z' of sample {name!r} not in configured classes" in capsys.readouterr().err
    assert calls == []
    assert not run.exists()


@pytest.mark.parametrize(
    "override, heads",
    [("encoder.n_heads=3", 3), ("refiner.n_heads=3", 3), ("backbone.n_heads=3", 3),
     ("encoder.n_heads=0", 0)],
)
def test_train_refuses_heads_that_do_not_split_the_features(env, tmp_path, capsys, override, heads):
    run = tmp_path / "run"
    rc = main(env["base"] + [
        "--out", str(run), "--set", override, "train", "--stage", "vq", "--data", str(env["data"]),
    ])
    assert rc == 2
    assert f"not divisible by {heads} heads" in capsys.readouterr().err
    assert not run.exists()


# Each case ended in a traceback, trained without complaint, or failed (exit
# 5) after writing its run directory before every number had its bound.
OUT_OF_BOUNDS = [
    ("vq", ["--set", "refiner.ffn_mult=-1"], "refiner.ffn_mult"),
    ("vq", ["--seed", "-1"], "seed"),
    ("vq", ["--set", "encoder.ffn_mult=0"], "encoder.ffn_mult"),
    ("vq", ["--set", "optimizer.eps=-1"], "optimizer.eps"),
    ("vq", ["--set", "optimizer.betas=[2,0.5]"], "optimizer.betas"),
    ("vq", ["--set", "schedule.warmup_steps=-5"], "schedule.warmup_steps"),
    ("vq", ["--set", "quantizer.beta=-1"], "quantizer.beta"),
    ("vq", ["--set", "quantizer.revival_epochs=0"], "quantizer.revival_epochs"),
    ("vq", ["--set", "backbone.max_len=0"], "backbone.max_len"),
    ("vq", ["--set", "backbone.embed_dim=0"], "backbone.embed_dim"),
    ("vq", ["--set", "lora.alpha=-3"], "lora.alpha"),
    ("vq", ["--set", "train.star_lr_scale=-1"], "train.star_lr_scale"),
    ("vq", ["--set", "optimizer.recon_lr_scale=0"], "optimizer.recon_lr_scale"),
    ("vq", ["--set", "schedule.min_lr=-1"], "schedule.min_lr"),
    ("vq", ["--set", "train.lambda_orth=Infinity"], "train.lambda_orth"),
    ("vq", ["--set", "optimizer.lr=NaN"], "optimizer.lr"),
    ("vq", ["--set", "optimizer.clip_norm=NaN"], "optimizer.clip_norm"),
    ("vq", ["--set", "quantizer.beta=NaN"], "quantizer.beta"),
    ("cpt", ["--set", "optimizer.betas=[0.9,1.0]"], "optimizer.betas"),
]


@pytest.mark.parametrize(
    "stage, args, key", OUT_OF_BOUNDS, ids=[" ".join(a) for _, a, _ in OUT_OF_BOUNDS]
)
def test_train_refuses_config_values_outside_their_bounds(env, tmp_path, capsys, stage, args, key):
    run = tmp_path / "run"
    init = ["--init-from", str(env["ckpt_vq"])] if stage == "cpt" else []
    rc = main(env["base"] + args + [
        "--out", str(run), "train", "--stage", stage, "--data", str(env["data"]), *init,
    ])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not run.exists()


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


def _stored_config(edit):
    def build(root, env):
        return _edited_checkpoint(root, env["ckpt_vq"], lambda manifest: edit(manifest["meta"]["config"]))

    return build


@pytest.mark.parametrize(
    "make_ckpt, named",
    [
        (_stored_config(lambda cfg: cfg["refiner"].update(ffn_mult=-1)), "refiner.ffn_mult"),
        (_stored_config(lambda cfg: cfg["encoder"].update(embed_dim="x")), "encoder.embed_dim"),
        (_stored_config(lambda cfg: cfg.update(quantizer=5)), "'quantizer'"),
        (_stored_config(lambda cfg: cfg["encoder"].update(n_heads=3)), "3 heads"),
        (_stored_config(lambda cfg: cfg["data"].update(classes=["class-a", "class-a"])),
         "label 'class-a' twice"),
        # a key of an earlier config, written by a checkpoint from before its removal
        (_stored_config(lambda cfg: cfg["quantizer"].update(kmeans_warm_start=True)),
         "unknown config key 'quantizer.kmeans_warm_start'"),
    ],
    ids=["out-of-bounds", "mistyped", "table-a-number", "heads-do-not-split", "label-twice", "removed-key"],
)
def test_tokenize_refuses_a_bad_stored_config(env, tmp_path, capsys, make_ckpt, named):
    ckpt = make_ckpt(tmp_path, env)
    rc = main(env["base"] + [
        "--out", str(tmp_path / "t.tok"), "tokenize",
        "--container", str(env["data"] / "sample_0000"), "--checkpoint", str(ckpt),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and named in err
    assert not (tmp_path / "t.tok").exists()


def test_stored_config_missing_keys_take_the_defaults(env, tmp_path):
    def drop(cfg):
        del cfg["refiner"]["n_heads"], cfg["quantizer"]["revival_epochs"]

    model, _ = load_model(_stored_config(drop)(tmp_path, env))
    assert model.cfg["refiner"]["n_heads"] == DEFAULTS["refiner"]["n_heads"]
    assert model.refiner.cfg.n_heads == DEFAULTS["refiner"]["n_heads"]
    assert model.quantizer.cfg.revival_epochs == DEFAULTS["quantizer"]["revival_epochs"]


def test_init_from_reads_a_checkpoint_whose_config_holds_a_removed_key(env, tmp_path):
    # --init-from reads the weights and the stage, not the stored config
    old = _stored_config(lambda cfg: cfg["quantizer"].update(kmeans_warm_start=True))
    rc = main(env["base"] + [
        "--out", str(tmp_path / "cpt"), "train", "--stage", "cpt", "--data", str(env["data"]),
        "--init-from", str(old(tmp_path, env)), "--epochs", "1",
    ])
    assert rc == 0
    weights = Path("checkpoints", "epoch_0000", "weights.bin")
    assert (tmp_path / "cpt" / weights).read_bytes() == (env["runs"]["cpt"] / weights).read_bytes()


# each a switch of an earlier config whose one value in use became a constant
REMOVED_KEYS = ["quantizer.kmeans_warm_start", "train.class_balancing", "backbone.tied_head"]


@pytest.mark.parametrize("key", REMOVED_KEYS)
@pytest.mark.parametrize("command", ["eval", "attn-export"])
def test_sft_checkpoint_whose_config_holds_a_removed_key_is_refused(env, tmp_path, capsys, command, key):
    section, name = key.split(".")
    ckpt = _edited_checkpoint(
        tmp_path, env["ckpt_sft"], lambda manifest: manifest["meta"]["config"][section].update({name: True})
    )
    out = tmp_path / "out"
    source = ["--data", str(env["eval_data"])] if command == "eval" else [
        "--container", str(env["data"] / "sample_0000")
    ]
    rc = main(env["base"] + ["--out", str(out), command, "--checkpoint", str(ckpt)] + source)
    assert rc == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"unknown config key '{key}'" in err
    assert not out.exists()



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


def test_eval_refuses_a_labels_file_that_names_a_sample_twice(env, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(env["eval_data"], data)
    with open(data / "labels.csv", "a") as f:
        f.write("sample_0000,class-b\n")
    out = tmp_path / "ev"
    rc = main(env["base"] + [
        "--out", str(out), "eval", "--checkpoint", str(env["ckpt_sft"]), "--data", str(data),
    ])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(data / "labels.csv") in err[0] and "'sample_0000' twice" in err[0]
    assert not out.exists()


def test_eval_refuses_a_label_row_without_a_container(env, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(env["eval_data"], data)
    shutil.rmtree(data / "sample_0003")
    out = tmp_path / "ev"
    rc = main(env["base"] + [
        "--out", str(out), "eval", "--checkpoint", str(env["ckpt_sft"]), "--data", str(data),
    ])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"label file {data / 'labels.csv'} names sample 'sample_0003' on line 5" in err[0]
    assert not out.exists()


def test_eval_rejects_vq_checkpoint(env):
    rc = main(env["base"] + [
        "eval", "--checkpoint", str(env["ckpt_vq"]), "--data", str(env["eval_data"]),
    ])
    assert rc == 3


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


def test_attn_export_bad_profile_exits_3(env, tmp_path):
    sample = env["data"] / "sample_0000"
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    rc = main(env["base"] + [
        "--out", str(tmp_path / "x.csv"), "attn-export",
        "--checkpoint", str(env["ckpt_sft"]), "--container", str(sample),
        "--profile", str(not_json),
    ])
    assert rc == 3
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"unrelated": 1}))
    rc = main(env["base"] + [
        "--out", str(tmp_path / "y.csv"), "attn-export",
        "--checkpoint", str(env["ckpt_sft"]), "--container", str(sample),
        "--profile", str(empty),
    ])
    assert rc == 3


@pytest.mark.parametrize("damage", ["one-key", "numbers"])
def test_attn_export_refuses_a_profile_missing_a_key_or_with_a_non_string_field(
    env, tmp_path, capsys, damage
):
    sample = env["data"] / "sample_0000"
    assert main(env["base"] + ["--out", str(tmp_path / "prof"), "profile",
                               "--container", str(sample)]) == 0
    profile = tmp_path / "prof" / "profile.json"
    record = json.loads(profile.read_text())
    if damage == "one-key":
        record = {"Feature Summary": record["Feature Summary"]}
    else:
        record = {k: 5 for k in record}
    profile.write_text(json.dumps(record))
    capsys.readouterr()
    out = tmp_path / "x.csv"
    rc = main(env["base"] + [
        "--out", str(out), "attn-export", "--checkpoint", str(env["ckpt_sft"]),
        "--container", str(sample), "--profile", str(profile),
    ])
    assert rc == 3
    assert str(profile) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", ["Feature Summary", 7], ids=["string", "number"])
def test_attn_export_profile_must_be_an_object(env, tmp_path, capsys, payload):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(payload))
    rc = main(env["base"] + [
        "--out", str(tmp_path / "x.csv"), "attn-export",
        "--checkpoint", str(env["ckpt_sft"]), "--container", str(env["data"] / "sample_0000"),
        "--profile", str(profile),
    ])
    assert rc == 3
    assert str(profile) in capsys.readouterr().err


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


def _probe(code, *args):
    src = str(Path(eeglm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
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
    src = str(Path(eeglm.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    per_step = {}
    for mode in ("library", "cli"):
        argv = quick + ["--out", str(tmp_path / mode), "train", "--stage", "cpt",
                        "--data", str(data), "--epochs", "3",
                        "--init-from", str(vq / "checkpoints" / "epoch_0000")]
        out = subprocess.run([sys.executable, "-c", _FAULTS_CHILD, mode, *argv], env=env,
                             capture_output=True, text=True, check=True)
        per_step[mode] = float(out.stdout.split()[-1])
    assert per_step["cli"] <= per_step["library"] / 4, per_step
