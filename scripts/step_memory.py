"""Traced memory of the training steps of the README quick start's stages
and of a 19-channel vq stage, and of eval and of a checkpoint load.

Usage, from the root of an eeglm checkout::

    PYTHONPATH=src python3 scripts/step_memory.py [--per-class N] [--set KEY=VALUE ...]

The settings come from ``recipe.py``, the table of the README recipe. In a
temporary directory, the script makes the quick start's training set and
trains its vq, cpt and sft stages for one epoch each with the quick start's
settings, each stage starting from the one before it. It then makes the
table's 19-channel set with the same seed, preprocesses every recording and
trains vq on it for one epoch (``vq-19ch``) with the table's 19-channel
settings. Every command goes through ``eeglm.cli.main``; its own output goes
to stderr. ``--per-class`` sets the samples per class of both sets (the
quick start's by default), and each ``--set`` is passed to every command
after the quick start's own.

Each stage runs under ``tracemalloc``. For each stage the script prints the
number of steps and, each the largest over those steps: the traced bytes
live when the step enters its ``Graph`` (what the stage holds: the model,
the optimizer state and the stage's data); the traced bytes live when the
step enters ``backward`` (those and the step's tape); the tape, the second
less the first; and the step's traced peak, from entering its ``Graph`` to
the end of the optimizer step.

A second table gives the traced peak of whole runs from the sft checkpoint:
``eval`` on the quick start's eval set and ``eval-4x`` on a set made with
the same synth flags and four times the samples per class, each through
``eeglm.cli.main``, and ``load``, one ``training.load_model``. Each runs once
untraced first (eval on the larger set), so that first-use allocations and
the bounded word caches of the profile text stay out of the traced peaks.

Traced bytes count the memory Python and numpy allocate, not the process's
resident set.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import recipe
from eeglm import cli, training
from eeglm.optim import AdamW
from eeglm.synth import load_corpus


def run(argv: list[str]) -> None:
    with redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code:
        raise SystemExit(f"eeglm {' '.join(argv)} exited {code}")


def measure(argv: list[str]) -> tuple[int, int, int, int, int]:
    """Run one training command under tracemalloc: its step count and the
    largest traced bytes held at a step's start, at backward entry, of the
    tape and at the step's peak."""
    starts: list[int] = []
    at_backward: list[int] = []
    peaks: list[int] = []
    real_graph, real_backward, real_step = training.Graph, training.backward, AdamW.step

    class StepGraph(real_graph):
        def __enter__(self):
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            return super().__enter__()

    def backward(loss, wrt):
        at_backward.append(tracemalloc.get_traced_memory()[0])
        return real_backward(loss, wrt)

    def step(self, grads, lr):
        real_step(self, grads, lr)
        peaks.append(tracemalloc.get_traced_memory()[1])

    training.Graph, training.backward, AdamW.step = StepGraph, backward, step
    tracemalloc.start()
    try:
        run(argv)
    finally:
        tracemalloc.stop()
        training.Graph, training.backward, AdamW.step = real_graph, real_backward, real_step
    tapes = [entry - start for start, entry in zip(starts, at_backward)]
    return len(peaks), max(starts), max(at_backward), max(tapes), max(peaks)


def traced_peak(call, *args) -> int:
    """The traced peak of `call(*args)`."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> None:
    synth = recipe.quick_start()[0]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--per-class", type=int, default=int(recipe.value(synth, "--per-class")),
                   help="samples per class of each set")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = p.parse_args(argv)
    extra = [a for kv in args.set for a in ("--set", kv)]
    n = str(args.per_class)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def train(out: str, stage: str, data: Path, init: str | None, settings: tuple[str, ...]):
            argv = ["--seed", recipe.SEED, "--out", str(work / out), *settings, *extra,
                    "train", "--stage", stage, "--data", str(data), "--epochs", "1"]
            if init:
                argv += ["--init-from", str(work / init / "checkpoints" / "epoch_0000")]
            rows.append((out, *measure(argv)))

        data, raw, clean = work / "train-data", work / "raw-19ch", work / "clean-19ch"
        run([*extra, *recipe.replace(recipe.replace(synth, "--out", str(data)), "--per-class", n)])
        train("vq", "vq", data, None, recipe.SET)
        train("cpt", "cpt", data, "vq", recipe.SET)
        train("sft", "sft", data, "cpt", recipe.SET)
        run(["--seed", recipe.SEED, "--out", str(raw), *extra,
             "synth", "--per-class", n, *recipe.WIDE_SYNTH])
        for sample in sorted(p for p in raw.iterdir() if (p / "manifest.json").is_file()):
            run(["--out", str(clean / sample.name), "preprocess", str(sample)])
        shutil.copy(raw / "labels.csv", clean / "labels.csv")
        train("vq-19ch", "vq", clean, None, recipe.WIDE_SET)

        sft = str(work / "sft" / "checkpoints" / "epoch_0000")
        _, eval_synth, *_, evaluate = recipe.quick_start()
        evaluate = recipe.replace(evaluate, "--checkpoint", sft)
        evaluate = recipe.replace(evaluate, "--out", str(work / "report"))
        per_class = int(recipe.value(eval_synth, "--per-class"))
        sets = {"eval": work / "eval-data", "eval-4x": work / "eval-data-4x"}
        argvs = {}
        for (name, data), n_eval in zip(sets.items(), (per_class, 4 * per_class)):
            synth_set = recipe.replace(recipe.replace(eval_synth, "--out", str(data)), "--per-class", str(n_eval))
            run([*extra, *synth_set])
            argvs[name] = [*extra, *recipe.replace(evaluate, "--data", str(data))]
        run(argvs["eval-4x"])
        runs = [(name, len(load_corpus(sets[name])), traced_peak(run, argvs[name])) for name in sets]
        training.load_model(sft)
        runs.append(("load", "-", traced_peak(training.load_model, sft)))
    print(f"{'stage':<8} {'steps':>5} {'held_bytes':>11} {'at_backward_bytes':>18} "
          f"{'tape_bytes':>11} {'step_peak_bytes':>16}")
    for name, steps, held, entry, tape, peak in rows:
        print(f"{name:<8} {steps:>5} {held:>11} {entry:>18} {tape:>11} {peak:>16}")
    print(f"\n{'run':<8} {'samples':>7} {'peak_bytes':>11}")
    for name, samples, peak in runs:
        print(f"{name:<8} {samples:>7} {peak:>11}")


if __name__ == "__main__":
    main()
