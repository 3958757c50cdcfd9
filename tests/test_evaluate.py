"""Evaluation: constrained label scoring, class mappings, report contracts."""

from __future__ import annotations

import copy
import json
import shutil
import tracemalloc

import numpy as np
import pytest

import recipe
from eeglm import cli
from eeglm.checkpoint import save_checkpoint
from eeglm.config import resolve_config
from eeglm.errors import DataError
from eeglm.evaluate import (
    BINARY_METRICS,
    MULTICLASS_METRICS,
    _binary_mapping,
    evaluate_checkpoint,
    label_probabilities,
)
from eeglm.synth import load_corpus, make_dataset
from eeglm.training import build_model, prepare_sequences

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
}


def toy_cfg(data_dir, classes):
    over = copy.deepcopy(TOY)
    over["data"]["train_dir"] = str(data_dir)
    over["data"]["classes"] = list(classes)
    return resolve_config(None, [over])


def write_sft_checkpoint(path, cfg, stage="sft"):
    model = build_model(cfg)
    if stage in ("cpt", "sft"):
        model.backbone.apply_lora(
            cfg["lora"]["rank"], cfg["lora"]["alpha"], np.random.default_rng(0)
        )
    arrays = {n: t.data for n, t in model.named_parameters().items()}
    meta = {"stage": stage, "epoch": 0, "step": 0, "config": cfg}
    save_checkpoint(path, arrays, meta)
    return path


@pytest.fixture(scope="module")
def binary_setup(tmp_path_factory):
    data = tmp_path_factory.mktemp("bin-data")
    make_dataset(
        data, n_per_class=3, classes=("class-a", "class-b"),
        montage="synthetic-2", seconds=2.0, seed=1,
    )
    cfg = toy_cfg(data, ["class-a", "class-b"])
    ckpt = write_sft_checkpoint(tmp_path_factory.mktemp("bin-ckpt") / "sft", cfg)
    return data, cfg, ckpt


@pytest.fixture(scope="module")
def multi_setup(tmp_path_factory):
    data = tmp_path_factory.mktemp("multi-data")
    make_dataset(
        data, n_per_class=2, classes=("class-a", "class-b", "class-c"),
        montage="synthetic-2", seconds=2.0, seed=2,
    )
    cfg = toy_cfg(data, ["class-a", "class-b", "class-c"])
    ckpt = write_sft_checkpoint(tmp_path_factory.mktemp("multi-ckpt") / "sft", cfg)
    return data, cfg, ckpt


@pytest.mark.usefixtures("float64")
def test_label_probabilities_match_renormalized_softmax(binary_setup):
    data, cfg, _ = binary_setup
    model = build_model(cfg)
    corpus = load_corpus(data, classes=cfg["data"]["classes"])
    item = prepare_sequences(model, corpus[:1], with_answer=True)[0]
    tokens = model.tokenizer.ensure_distinct(cfg["data"]["classes"])
    probs = label_probabilities(model, item, tokens)
    assert set(probs) == set(tokens)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    # restricting a softmax then renormalizing equals renormalized full softmax
    sem = model.refiner(item.h_text, item.z_q)
    row = model.backbone.logits(item.seq, sem).data[
        item.seq.spans["answer"][0] - 1
    ]
    full = np.exp(row - row.max())
    full /= full.sum()
    mass = sum(full[t] for t in tokens.values())
    for lab, tok in tokens.items():
        assert probs[lab] == pytest.approx(full[tok] / mass, rel=1e-12)


def test_binary_mapping_prefers_minority_positive():
    assert _binary_mapping(["a", "b"], ["a", "a", "b"]) == ["a", "b"]  # b rare
    assert _binary_mapping(["a", "b"], ["a", "b", "b"]) == ["b", "a"]  # a rare
    assert _binary_mapping(["a", "b"], ["a", "b"]) == ["a", "b"]  # tie keeps order


def test_binary_report_contract(binary_setup, tmp_path):
    data, _, ckpt = binary_setup
    report = evaluate_checkpoint(ckpt, data, out_dir=tmp_path / "eval")
    assert set(report) == {
        "task", "n_samples", "classes", "metrics", "per_sample", "positive_class",
    }
    assert report["n_samples"] == 6
    assert sorted(report["classes"]) == ["class-a", "class-b"]
    assert report["positive_class"] == report["classes"][1]
    assert tuple(report["metrics"]) == BINARY_METRICS
    for value in report["metrics"].values():
        assert 0.0 <= value <= 1.0
    for row in report["per_sample"]:
        probs = row["probabilities"]
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-6)
        assert row["prediction"] == max(probs, key=probs.get)
    on_disk = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(report))
    assert (tmp_path / "eval" / "config.json").is_file()


def test_multiclass_report_contract(multi_setup):
    data, _, ckpt = multi_setup
    report = evaluate_checkpoint(ckpt, data)
    assert tuple(report["metrics"]) == MULTICLASS_METRICS
    assert "positive_class" not in report
    assert report["n_samples"] == 6
    assert report["classes"] == ["class-a", "class-b", "class-c"]
    assert -1.0 <= report["metrics"]["cohens_kappa"] <= 1.0
    assert 0.0 <= report["metrics"]["weighted_f1"] <= 1.0


def test_report_shape_follows_the_configured_classes_not_the_labels_seen(
    binary_setup, multi_setup
):
    # a three-class checkpoint scored on data holding two of its classes
    data, _, _ = binary_setup
    _, _, ckpt = multi_setup
    report = evaluate_checkpoint(ckpt, data)
    assert report["classes"] == ["class-a", "class-b", "class-c"]
    assert tuple(report["metrics"]) == MULTICLASS_METRICS
    assert report["metrics"]["balanced_accuracy"] == pytest.approx(0.5, abs=1e-12)
    assert report["metrics"]["cohens_kappa"] == pytest.approx(0.0, abs=1e-12)
    assert report["metrics"]["weighted_f1"] == pytest.approx(1 / 3, abs=1e-12)


def test_predicting_a_class_the_data_lacks_still_scores(binary_setup, multi_setup, monkeypatch):
    import eeglm.evaluate as evaluate

    data, _, _ = binary_setup
    _, _, ckpt = multi_setup
    favour_c = {"class-a": 0.25, "class-b": 0.25, "class-c": 0.5}
    monkeypatch.setattr(evaluate, "label_probabilities", lambda *args: favour_c)
    report = evaluate_checkpoint(ckpt, data)
    assert {row["prediction"] for row in report["per_sample"]} == {"class-c"}
    assert report["metrics"] == {"balanced_accuracy": 0.0, "cohens_kappa": 0.0, "weighted_f1": 0.0}


def test_evaluation_is_deterministic(binary_setup):
    data, _, ckpt = binary_setup
    assert evaluate_checkpoint(ckpt, data) == evaluate_checkpoint(ckpt, data)


def test_rejects_non_sft_checkpoint(binary_setup, tmp_path):
    data, cfg, _ = binary_setup
    ckpt = write_sft_checkpoint(tmp_path / "cpt", cfg, stage="cpt")
    with pytest.raises(DataError, match="supervised fine-tuning"):
        evaluate_checkpoint(ckpt, data)


def test_rejects_labels_outside_trained_classes(binary_setup, tmp_path):
    _, cfg, ckpt = binary_setup
    foreign = tmp_path / "data"
    make_dataset(
        foreign, n_per_class=1, classes=("class-a", "class-c"),
        montage="synthetic-2", seconds=2.0, seed=3,
    )
    with pytest.raises(DataError, match="not in configured classes"):
        evaluate_checkpoint(ckpt, foreign)


# What eval keeps per sample: its report row, its path in the corpus listing
# and its labels.csv row, about 1.5 KB traced; the bound leaves room for long
# temporary paths. Eval that prepared every sample before scoring the first
# held about 13 KB more per sample of the quick start's.
ROW_BYTES = 3 * 1024


def test_eval_traced_peak_grows_by_the_report_rows_alone(quick_start, tmp_path, capsys):
    assert quick_start.proc.returncode == 0, quick_start.proc.stderr[-2000:]
    _, synth, *_, evaluate = recipe.quick_start()
    per_class = int(recipe.value(synth, "--per-class"))
    sft = quick_start.out / recipe.last_checkpoint("sft")
    evaluate = recipe.replace(evaluate, "--checkpoint", str(sft))

    def eval_peak(n: int) -> tuple[int, int]:
        """The traced peak of eval on the recipe's eval set made with `n`
        samples per class, and the set's size."""
        data, out = tmp_path / f"eval-{n}", tmp_path / "report"
        if not data.exists():
            assert cli.main(recipe.replace(recipe.replace(synth, "--out", str(data)),
                                           "--per-class", str(n))) == 0
        argv = recipe.replace(recipe.replace(evaluate, "--out", str(out)), "--data", str(data))
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1], len(load_corpus(data))
        finally:
            tracemalloc.stop()
            shutil.rmtree(out)

    # the larger set runs once first to fill the bounded word caches with
    # every word of both sets (the smaller set's samples are the first of the
    # larger one's), so the measured runs add no cache entry
    eval_peak(4 * per_class)
    (small, n_small), (large, n_large) = eval_peak(per_class), eval_peak(4 * per_class)
    capsys.readouterr()
    assert n_large == 4 * n_small
    assert large - small <= (n_large - n_small) * ROW_BYTES, (small, large)
