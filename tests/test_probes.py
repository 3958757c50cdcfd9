"""The benchmark's probes patch eeglm attributes by name; each name must resolve."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from eeglm import evaluate, training
from eeglm.autodiff import Graph
from eeglm.config import resolve_config
from eeglm.synth import load_corpus, make_dataset

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _load_probes():
    # loaded by file path: defining the module installs no patch
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probes = _load_probes()

# what the probes patch besides SPANS: the always-on marks and the rows-read counter
EXTRA_TARGETS = (
    ("eeglm.training", "save_stage_checkpoint"),
    ("eeglm.training:PipelineModel", "tokenize_recording"),
    ("eeglm.losses", "span_nll"),
)


@pytest.mark.parametrize(
    "target, attr",
    [(target, attr) for target, attr, _ in probes.SPANS] + list(EXTRA_TARGETS),
    ids=lambda value: value,
)
def test_patched_attribute_resolves(target, attr):
    assert callable(getattr(probes._resolve(target), attr))


def _toy_cfg(data: Path, **extra) -> dict:
    """A toy config over a fresh two-recording dataset written to `data`."""
    make_dataset(data, n_per_class=1, classes=("class-a", "class-b"),
                 montage="synthetic-2", seconds=2.0, seed=3)
    return resolve_config(None, [{
        "data": {"montage": "synthetic-2", "classes": ["class-a", "class-b"],
                 "train_dir": str(data)},
        "encoder": {"embed_dim": 8, "ffn_mult": 2, "max_patches": 8},
        "quantizer": {"num_codes": 8, "code_dim": 4},
        "refiner": {"n_experts": 2},
        "backbone": {"v_text": 64, "n_layers": 2, "embed_dim": 16, "n_heads": 2,
                     "ffn_mult": 2, "max_len": 192},
        **extra,
    }])


def test_marks_record_one_epoch_end_per_checkpoint(tmp_path):
    # the stage rates read the stage from save_stage_checkpoint's fourth
    # positional argument: (run_dir, model, opt, stage, ...)
    cfg = _toy_cfg(tmp_path / "data", train={"epochs": 1})
    marks = probes.Marks()
    marks.install()
    try:
        training.STAGE_RUNNERS["vq"](cfg, tmp_path / "run")
    finally:
        marks.uninstall()
    checkpoints = sorted(p.name for p in (tmp_path / "run" / "checkpoints").iterdir())
    assert checkpoints == ["epoch_0000"]
    assert [stage for stage, _ in marks.epoch_ends] == ["vq"]
    assert all(isinstance(t, float) for _, t in marks.epoch_ends)


def test_traced_losses_read_every_row_the_backbone_computes(tmp_path):
    cfg = _toy_cfg(tmp_path)
    model = training.build_model(cfg)
    items = training.prepare_sequences(model, load_corpus(tmp_path), with_answer=True)
    tokens = model.tokenizer.ensure_distinct(cfg["data"]["classes"])

    tracer = probes.Tracer()
    tracer.install()
    try:
        for item in items:
            with Graph():
                sem = model.refiner(item.h_text, item.z_q)
                training.loss_ntp(item.seq, model.backbone, sem)
                training.loss_sft(item.seq, model.backbone, sem)
            evaluate.label_probabilities(model, item, tokens)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["backbone.logits.calls"] == 3 * len(items)
    assert counts["backbone.rows_read"] > 0
    assert counts["backbone.rows_read"] == counts["backbone.rows_computed"]
    # uninstalled: the module attributes are the originals again
    assert training.loss_ntp.__module__ == "eeglm.losses"


def test_benchmark_selftest_passes():
    # a change to a name, signature or call path the probes patch fails here
    root = PROBES.parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
