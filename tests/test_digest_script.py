"""The quick-start digest script's committed listing and its comparison.

Making a listing runs the whole quick start, so the suite makes one, in the
session fixture `quick_start`: one test compares it with the committed
listing, and the others check the comparison, on the committed listing and
edits of it.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def digest(monkeypatch):
    # the script pins the BLAS thread count in the environment at import
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    spec = importlib.util.spec_from_file_location("quickstart_digest", SCRIPTS / "quickstart_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected() -> list[str]:
    return (SCRIPTS / "quickstart_digest.expected").read_text().splitlines()


def test_committed_listing_is_a_one_thread_listing_of_every_run_directory(digest):
    listing = expected()
    fields = dict(field.split("=", 1) for field in listing[0].split())
    assert list(fields) == ["OPENBLAS_NUM_THREADS", "numpy", "scipy", "simd"]
    assert fields["OPENBLAS_NUM_THREADS"] == "1"
    assert [field.split("=", 1)[0] for field in digest.header().split()] == list(fields)
    paths = [line.split("  ", 1)[1] for line in listing[1:]]
    assert len(paths) == 259 and paths == sorted(paths)
    assert {p.split("/", 1)[0] for p in paths if "/" in p} >= {
        "run-vq", "run-cpt", "run-sft", "resume-vq", "resume-cpt", "resume-sft", "report",
    }
    assert digest.compare(listing, listing) == []


def test_compare_names_the_environment_first_then_each_path_by_run_directory(digest):
    listing = expected()
    changed = [line for line in listing if line.endswith("run-cpt/metrics.csv")][0]
    actual = ["OPENBLAS_NUM_THREADS=2"] + [
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
    first = listing[0] if header == "same" else "OPENBLAS_NUM_THREADS=1 numpy=0 scipy=0 simd="
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
