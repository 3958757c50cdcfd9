"""Command-line surface: layouts, determinism, provenance, and exit codes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from eeglm.checkpoint import load_checkpoint, save_checkpoint
from eeglm.cli import ATTN_HEADER, main
from eeglm.evaluate import BINARY_METRICS
from eeglm.quantizer import load_tokens
from eeglm.synth import make_dataset

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
    seqs, num_codes = load_tokens(outs[0])
    assert num_codes == 8
    assert (seqs[0].channels, seqs[0].patches) == (2, 2)
    assert seqs[0].indices.shape == (4,)
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
    name = next(n for n in arrays if n.startswith("encoder."))
    arrays[name] = np.full_like(arrays[name], np.nan)
    broken = tmp_path / "broken"
    save_checkpoint(broken, arrays, meta)
    rc = main(env["base"] + [
        "--out", str(tmp_path / "t.tok"), "tokenize",
        "--container", str(env["data"] / "sample_0000"), "--checkpoint", str(broken),
    ])
    assert rc == 5


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


def test_profile_label_leak_exits_2(env, tmp_path, capsys):
    rc = main(env["base"] + [
        "--out", str(tmp_path / "p"),
        "--set", "data.task_description=tell class-a from the rest",
        "profile", "--container", str(env["data"] / "sample_0000"),
    ])
    assert rc == 2
    assert "leak" in capsys.readouterr().err


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


def test_train_missing_data_exits_3(env, tmp_path):
    rc = main(env["base"] + [
        "--out", str(tmp_path / "run"), "train", "--stage", "vq",
        "--data", str(tmp_path / "absent"),
    ])
    assert rc == 3


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
