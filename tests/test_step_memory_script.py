"""The step-memory script, run on a two-sample toy training set."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_step_memory_prints_each_stage_on_a_toy_set():
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
    argv = [sys.executable, str(SCRIPTS / "step_memory.py"),
            "--per-class", "1", "--set", 'data.classes=["class-a","class-b"]']
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps_table, runs_table = proc.stdout.split("\n\n")
    header, *rows = (line.split() for line in steps_table.splitlines())
    assert header == [
        "stage", "steps", "held_bytes", "at_backward_bytes", "tape_bytes", "step_peak_bytes"
    ]
    assert [row[0] for row in rows] == ["vq", "cpt", "sft", "vq-19ch"]
    for _, steps, held, entry, tape, peak in rows:
        assert int(steps) == 2 and 0 < int(tape) < int(entry) <= int(peak)
        assert 0 < int(held) < int(entry)
    header, *rows = (line.split() for line in runs_table.splitlines())
    assert header == ["run", "samples", "peak_bytes"]
    # the recipe's eval set (4 per class) and one with 4x the samples, on the two classes set here
    assert [row[:2] for row in rows] == [["eval", "8"], ["eval-4x", "32"], ["load", "-"]]
    peaks = {name: int(peak) for name, _, peak in rows}
    assert 0 < peaks["load"] < peaks["eval"] <= peaks["eval-4x"]
