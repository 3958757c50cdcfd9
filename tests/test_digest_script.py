"""The quick-start digest script's committed listing, its comparison and
its stop-and-resume check.

Making a listing runs the whole quick start, so the suite makes one, in the
session fixture `quick_start`: one test compares it with the committed
listing, and the others check the comparison, on the committed listing and
edits of it, and the stop-and-resume check, on a toy run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from eeglm import training

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def digest():
    spec = importlib.util.spec_from_file_location("quickstart_digest", SCRIPTS / "quickstart_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected() -> list[str]:
    return (SCRIPTS / "quickstart_digest.expected").read_text().splitlines()


def test_committed_listing_names_its_environment_and_every_run_directory(digest):
    listing = expected()
    fields = dict(field.split("=", 1) for field in listing[0].split())
    # no thread count: cli.main runs BLAS on one thread whatever the environment says
    assert list(fields) == ["numpy", "scipy", "simd"]
    assert [field.split("=", 1)[0] for field in digest.header().split()] == list(fields)
    paths = [line.split("  ", 1)[1] for line in listing[1:]]
    assert len(paths) == 174 and paths == sorted(paths)
    run_dirs = {p.split("/", 1)[0] for p in paths if "/" in p}
    assert run_dirs >= {"run-vq", "run-cpt", "run-sft", "report"}
    assert not any(d.startswith("resume-") for d in run_dirs)
    assert digest.compare(listing, listing) == []


def test_compare_names_the_environment_first_then_each_path_by_run_directory(digest):
    listing = expected()
    changed = [line for line in listing if line.endswith("run-cpt/metrics.csv")][0]
    actual = ["numpy=0 scipy=0 simd="] + [
        ("0" * 64 + "  run-cpt/metrics.csv") if line == changed else line
        for line in listing[1:]
        if not line.endswith("  attn.csv")
    ] + ["0" * 64 + "  run-vq/extra.txt"]
    report = digest.compare(listing, actual)
    assert report[0].startswith("environment differs")
    assert report[1:] == [
        ".: 1 file(s) differ",
        "  missing  attn.csv",
        "run-cpt: 1 file(s) differ",
        "  changed  run-cpt/metrics.csv",
        "run-vq: 1 file(s) differ",
        "  new  run-vq/extra.txt",
    ]


@pytest.mark.parametrize("argv", [[], ["--check"], ["--check", "FILE", "OUT"], ["a", "b"]])
def test_wrong_argument_count_prints_usage_and_runs_nothing(digest, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert digest.run(argv) == 2
    assert "Usage" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "header, edit, code",
    [("same", False, 0), ("other", False, 0), ("same", True, 1), ("other", True, 1)],
    ids=["match", "environment-only", "bytes-only", "both"],
)
def test_check_fails_on_bytes_and_only_notes_the_environment(digest, monkeypatch, capsys, header, edit, code):
    listing = expected()
    first = listing[0] if header == "same" else "numpy=0 scipy=0 simd="
    rows = [("0" * 64 + line[64:]) if edit and line.endswith("run-cpt/metrics.csv") else line for line in listing[1:]]
    monkeypatch.setattr(digest, "make_listing", lambda out: [first, *rows])
    assert digest.check(SCRIPTS / "quickstart_digest.expected") == code
    out = capsys.readouterr().out
    assert ("environment differs" in out) == (header == "other")
    assert ("same bytes" in out) == (not edit)
    assert ("run-cpt: 1 file(s) differ" in out) == edit


def test_quick_start_writes_the_committed_bytes(digest, quick_start):
    assert quick_start.proc.returncode == 0, quick_start.proc.stderr[-2000:]
    listing, want = quick_start.proc.stdout.splitlines(), expected()
    if listing[1:] != want[1:] and listing[:1] != want[:1]:
        pytest.skip(f"the listing was made elsewhere and the bytes differ: {listing[0]}")
    assert listing[1:] == want[1:], "\n".join(digest.compare(want, listing))


TOY = {
    "data": {"montage": "synthetic-2", "classes": ["class-a", "class-b"]},
    "encoder": {"embed_dim": 8, "ffn_mult": 2, "max_patches": 8},
    "quantizer": {"num_codes": 8, "code_dim": 4},
    "schedule": {"warmup_steps": 2},
}


@pytest.fixture
def toy_run(tmp_path, monkeypatch):
    """The empty directory `out` the test runs in, and the synth and 2-epoch
    vq commands of a toy run, with paths relative to it."""
    (tmp_path / "toy.json").write_text(json.dumps(TOY))
    base = ["--config", str(tmp_path / "toy.json"), "--seed", "0"]
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    synth = [*base, "--out", "data", "synth", "--per-class", "1", "--montage", "synthetic-2"]
    vq = [*base, "--out", "run-vq", "train", "--stage", "vq", "--data", "data", "--epochs", "2"]
    return out, synth, vq


@pytest.fixture
def perturbed_resume(digest, monkeypatch):
    """Every --resume the script runs steps at 1 + 1e-3 times the
    schedule's learning rate."""
    real_run, real_lr = digest.run_command, training.cosine_schedule

    def run_command(argv):
        if "--resume" not in argv:
            return real_run(argv)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "cosine_schedule", lambda *a, **kw: real_lr(*a, **kw) * (1 + 1e-3))
            return real_run(argv)

    monkeypatch.setattr(digest, "run_command", run_command)


def test_stop_and_resume_finds_no_difference_on_a_toy_run(digest, toy_run, capsys):
    _, synth, vq = toy_run
    assert digest.run_command(synth) == 0 and digest.run_command(vq) == 0
    assert digest.stop_and_resume(vq, 1) == 0
    assert "differ" not in capsys.readouterr().err


def test_stop_and_resume_names_the_run_directory_and_the_files_a_perturbed_resume_changes(
    digest, toy_run, perturbed_resume, capsys
):
    _, synth, vq = toy_run
    assert digest.run_command(synth) == 0 and digest.run_command(vq) == 0
    assert digest.stop_and_resume(vq, 1) == 1
    err = capsys.readouterr().err.splitlines()
    # epoch 0's checkpoint is kept; epoch 1's steps run again at another lr
    assert err[-5:] == [
        "run-vq: 4 file(s) differ after the stop and --resume",
        "  artifacts/summary.json",
        "  checkpoints/epoch_0001/manifest.json",
        "  checkpoints/epoch_0001/weights.bin",
        "  metrics.csv",
    ]


def test_the_script_exits_1_when_a_resumed_run_differs(digest, toy_run, perturbed_resume, monkeypatch, capsys):
    out, synth, vq = toy_run
    monkeypatch.setattr(digest, "commands", lambda: [synth, vq])
    monkeypatch.setattr(digest.recipe, "training", lambda: [vq])
    monkeypatch.setitem(digest.recipe.STOPS, "vq", 1)
    assert digest.run([str(out)]) == 1
    captured = capsys.readouterr()
    assert "run-vq: 4 file(s) differ" in captured.err and captured.out == ""
