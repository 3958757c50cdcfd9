"""The benchmark's three workloads, driven through the public ``eeglm`` API.

Each workload is a closed loop with one client: every stage, sample or call
starts when the previous one has finished. Inputs come only from ``synth``.
The workload seed picks the data the trained model is asked about: the eval
set of quickstart (seed + 1, so seed 7 gives the README's eval set), the
inference set of lm_infer (seed + 1) and the recordings of signal_wide
(seed). Training follows the README quick start, whose seeds are part of the
recipe: training data seed 7 and run seed 7. The recipe does not reach the
accuracy floor for every training seed (training data seed 4 gives a
balanced accuracy of 0.67), while the seed-7 model scores 1.0 on the eval
sets of seeds 1 to 30.

How much work a run does is fixed by the workload, its size and
``--seconds`` alone, never by how fast the machine is, so two commits
measured with the same settings do the same work and every count repeats
exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from eeglm import cli, training
from eeglm.errors import EeglmError
from eeglm.signal_io import WORK_FS
from eeglm.synth import load_corpus

import checks
from probes import Marks, Tracer

_clock = time.perf_counter

# The README quick-start overrides, verbatim.
QUICKSTART_SET = [
    "--set", 'data.montage="synthetic-4"',
    "--set", "quantizer.num_codes=32",
    "--set", "quantizer.code_dim=8",
    "--set", "optimizer.lr=0.003",
    "--set", "schedule.warmup_steps=20",
]
# The 19-channel 10-20 montage (the README calls it grid-19), the quantizer
# at its package defaults, and the quick-start optimizer settings.
WIDE_SET = [
    "--set", 'data.montage="builtin-1020"',
    "--set", "optimizer.lr=0.003",
    "--set", "schedule.warmup_steps=20",
]
RECIPE_SEED = 7  # the README quick start's --seed for training data and runs
SYNTH_SECONDS = 2.0  # the synth default the quick start uses
WIDE_FS = 500.0
WIDE_SECONDS = 6.0  # 6 patches x 19 channels = 114 tokens per recording
WIDE_PASS_S = 1.5  # --seconds per tokenize + profile pass of signal_wide
INFER_PASS_S = 4.0  # --seconds per eval + tokenize pass of lm_infer
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Size:
    """Input sizes. ``full`` is the benchmark; ``tiny`` only serves the self-test."""

    per_class: int = 8
    eval_per_class: int = 4
    vq_epochs: int = 20
    cpt_epochs: int = 8
    sft_epochs: int = 10
    wide_per_class: int = 8
    wide_vq_epochs: int = 12
    infer_per_class: int = 32
    ba_floor: float | None = checks.BALANCED_ACCURACY_FLOOR


SIZES = {
    "full": Size(),
    "tiny": Size(
        per_class=2, eval_per_class=1, vq_epochs=3, cpt_epochs=2, sft_epochs=2,
        wide_per_class=1, wide_vq_epochs=3, infer_per_class=2,
        # a few epochs cannot reach the accuracy floor; the self-test checks
        # every other output
        ba_floor=None,
    ),
}


def passes_for(seconds: float, pass_s: float) -> int:
    """How many times a pass repeats: one per `pass_s` of `seconds`, sized so
    a full run measures about `seconds` on a 2-core machine. It depends on
    the settings alone, and is at least two, so that a traced run has a
    traced and an untraced pass to compare."""
    return max(2, round(seconds / pass_s))


class Abort(Exception):
    """An op failed that later work depends on."""


class Bench:
    """State of one benchmark run: probes, readings, checks and op counts."""

    def __init__(self, work: Path, seed: int, size_name: str, seconds: float, trace: bool,
                 cache: Path | None = None, source_digest: str = ""):
        self.work = work
        self.cache = cache
        self.source_digest = source_digest
        self.seed = seed
        self.size_name = size_name
        self.size = SIZES[size_name]
        self.seconds = seconds
        self.marks = Marks()
        self.tracer = Tracer() if trace else None
        self.measures: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures_by_exit_code: Counter = Counter()
        self.setup_parts: dict[str, float] = {}
        # wall times of paired units (same work, traced or not), by traced
        self.paired_walls: dict[bool, list[float]] = {True: [], False: []}
        self.samples: dict[str, list] = {}  # raw timings kept in the result record
        self.num_codes = 0
        self._tracing = False
        self._t_start = 0.0

    # ---- ops ----
    def _fail(self, code: int, ops: int) -> None:
        self.failed += ops
        self.failures_by_exit_code[code] += ops

    def cli(self, argv: list[str], ops: int = 1) -> bool:
        """One CLI invocation counted as `ops` ops. A non-zero exit code is
        recorded under that code, as the README's exit-code table defines it."""
        self.attempted += ops
        with redirect_stdout(io.StringIO()):
            if self._tracing:
                code = self.tracer.call("cli." + _command(argv), cli.main, argv)
            else:
                code = cli.main(argv)
        if code != 0:
            self._fail(code, ops)
        return code == 0

    def op(self, fn, *args):
        """One library call counted as an op. An EeglmError is recorded under
        its exit code, and the call returns None instead of raising."""
        self.attempted += 1
        try:
            return fn(*args)
        except EeglmError as e:
            self._fail(e.exit_code, 1)
            print(f"op failed with exit code {e.exit_code}: {e}", file=sys.stderr)
            return None

    @contextmanager
    def unit(self, traced: bool, paired: bool = False):
        """A unit of timed work, run under the tracer when `traced`."""
        traced = traced and self.tracer is not None
        if traced:
            self.tracer.install()
            self._tracing = True
        t0 = _clock()
        try:
            yield
        finally:
            wall = _clock() - t0
            if traced:
                self._tracing = False
                self.tracer.uninstall()
        if paired:
            self.paired_walls[traced].append(wall)

    # ---- the timed phase ----
    def start_timed(self) -> None:
        self.marks.install()
        self._t_start = _clock()

    def stop_timed(self) -> None:
        self.measures["wall_s"] = _clock() - self._t_start
        self.marks.uninstall()
        # ru_maxrss is in KiB on Linux
        self.measures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ---- set-up ----
    def synth_repeated(self, jobs: list[tuple[str, list[str]]]) -> dict[str, Path]:
        """Generate the datasets SETUP_REPEATS times into fresh directories,
        keep the median time, and check that the copies are byte-identical."""
        times, digests = [], []
        for rep in range(SETUP_REPEATS):
            t0 = _clock()
            for name, (seed, *args) in jobs:
                out = self.work / f"setup{rep}" / name
                with redirect_stdout(io.StringIO()):
                    code = cli.main(["--seed", seed, "--out", str(out), "synth", *args])
                if code != 0:
                    raise Abort(f"synth {name} failed with exit code {code}")
            times.append(_clock() - t0)
            digests.append(tuple(checks.tree_digest(self.work / f"setup{rep}" / n) for n, _ in jobs))
        self.problems += checks.same(digests, "synthetic dataset digest")
        self.setup_parts["synth_s"] = statistics.median(times)
        return {name: self.work / "setup0" / name for name, _ in jobs}

    # ---- readings and checks ----
    def stage_rate(self, runs: list[Path]) -> float:
        """Steps/s of a stage over its epochs after the first, pooled over
        every run of the stage."""
        summary = _summary(runs[0])
        per_epoch = summary["steps"] / summary["epochs"]
        intervals = self.marks.stage_intervals(summary["stage"])
        return per_epoch * len(intervals) / sum(intervals)

    def check_stage(self, run: Path) -> dict:
        summary = _summary(run)
        lam = _config(run)["train"]["lambda_orth"]
        self.problems += checks.metrics_csv(run / "metrics.csv", lam, summary["steps"])
        return summary

    def check_tokens(self, cfg: dict, channels: int, seconds: float) -> None:
        """Check every token sequence of the run; keep num_codes for the
        code-usage metric."""
        patches = int(seconds * WORK_FS) // cfg["data"]["patch_len"]
        self.num_codes = cfg["quantizer"]["num_codes"]
        for i, seq in enumerate(self.marks.tokens):
            self.problems += checks.tokens(seq, self.num_codes, channels, patches, f"tokens[{i}]")


def _command(argv: list[str]) -> str:
    """The subcommand of a CLI argv whose global flags all take a value."""
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return argv[i]


def _summary(run: Path) -> dict:
    return json.loads((run / "artifacts" / "summary.json").read_text())


def _config(run: Path) -> dict:
    return json.loads((run / "config.json").read_text())


def _final_loss(summary: dict) -> float:
    last = summary["epoch_avg_loss"][-1]
    return last["total"] if isinstance(last, dict) else last


def _synth(seed: int, per_class: int, montage: str, *extra: str) -> list[str]:
    return [str(seed), "--per-class", str(per_class), "--montage", montage, *extra]


def _train_argv(run: Path, stage: str, data: Path, epochs: int,
                init: Path | None, overrides: list[str]) -> list[str]:
    argv = ["--seed", str(RECIPE_SEED), "--out", str(run), *overrides,
            "train", "--stage", stage, "--data", str(data), "--epochs", str(epochs)]
    if init is not None:
        argv += ["--init-from", str(init)]
    return argv


def _eval_argv(out: Path, ckpt: Path, data: Path) -> list[str]:
    return ["--seed", str(RECIPE_SEED), "--out", str(out), *QUICKSTART_SET, "eval",
            "--checkpoint", str(ckpt), "--data", str(data)]


def _last_epoch(run: Path, epochs: int) -> Path:
    return run / "checkpoints" / f"epoch_{epochs - 1:04d}"


def train_recipe(bench: Bench, data: Path, root: Path, repeat_sft: bool = False) -> dict:
    """vq -> cpt -> sft with the quick-start recipe, traced when the run is.
    With `repeat_sft`, sft runs a second time from the same cpt checkpoint
    and seed, untraced: it checks "same seed, same bytes" and is the
    untraced twin of the first sft run."""
    size = bench.size
    runs = {"vq": [root / "run-vq"], "cpt": [root / "run-cpt"], "sft": [root / "run-sft"]}
    if repeat_sft:
        runs["sft"].append(root / "run-sft-2")
    plan = [
        ("vq", runs["vq"][0], size.vq_epochs, None, True, False),
        ("cpt", runs["cpt"][0], size.cpt_epochs,
         _last_epoch(runs["vq"][0], size.vq_epochs), True, False),
    ] + [
        ("sft", run, size.sft_epochs,
         _last_epoch(runs["cpt"][0], size.cpt_epochs), i == 0, repeat_sft)
        for i, run in enumerate(runs["sft"])
    ]
    for stage, run, epochs, init, traced, paired in plan:
        with bench.unit(traced, paired):
            ok = bench.cli(_train_argv(run, stage, data, epochs, init, QUICKSTART_SET))
        if not ok:
            raise Abort(f"{stage} stage failed")
    return runs


# ---------------------------------------------------------------------------
# quickstart: the README quick start as written
# ---------------------------------------------------------------------------

def quickstart(bench: Bench) -> None:
    s, size = bench.seed, bench.size
    data = bench.synth_repeated([
        ("train-data", _synth(RECIPE_SEED, size.per_class, "synthetic-4")),
        ("eval-data", _synth(s + 1, size.eval_per_class, "synthetic-4")),
    ])
    root = bench.work / "quickstart"
    n_eval = 3 * size.eval_per_class
    bench.start_timed()
    try:
        runs = train_recipe(bench, data["train-data"], root, repeat_sft=True)
        t0 = _clock()
        with bench.unit(True):
            ok = bench.cli(
                _eval_argv(root / "report", _last_epoch(runs["sft"][0], size.sft_epochs),
                           data["eval-data"]),
                ops=n_eval,
            )
        eval_wall = _clock() - t0
        if not ok:
            raise Abort("eval failed")
    finally:
        bench.stop_timed()
    for stage in ("vq", "cpt", "sft"):
        summaries = [bench.check_stage(r) for r in runs[stage]]
        bench.measures[f"{stage}_final_loss"] = _final_loss(summaries[0])
        bench.measures[f"{stage}_steps_per_s"] = bench.stage_rate(runs[stage])
    bench.measures["eval_samples_per_s"] = n_eval / eval_wall
    bench.measures["tokenize_samples_per_s"] = bench.marks.tokenize_rate()
    bench.problems += checks.same(
        [checks.tree_digest(_last_epoch(r, size.sft_epochs)) for r in runs["sft"]],
        "sft checkpoint digest",
    )
    report = json.loads((root / "report" / "report.json").read_text())
    bench.problems += checks.eval_report(report, size.ba_floor)
    bench.measures["balanced_accuracy"] = report["metrics"]["balanced_accuracy"]
    bench.check_tokens(_config(runs["sft"][0]), channels=4, seconds=SYNTH_SECONDS)


# ---------------------------------------------------------------------------
# signal_wide: the tokenizer side at width; the LM side never runs
# ---------------------------------------------------------------------------

def signal_wide(bench: Bench) -> None:
    s, size = bench.seed, bench.size
    raw = bench.synth_repeated([
        ("raw", _synth(s, size.wide_per_class, "builtin-1020",
                       "--fs", str(WIDE_FS), "--seconds", str(WIDE_SECONDS))),
    ])["raw"]
    clean, run = bench.work / "clean", bench.work / "run-vq"
    names = sorted(p.name for p in raw.iterdir() if (p / "manifest.json").is_file())
    bench.start_timed()
    try:
        with bench.unit(True):
            for name in names:
                if not bench.cli(["--out", str(clean / name), "preprocess", str(raw / name)]):
                    raise Abort(f"preprocess of {name} failed")
            shutil.copy(raw / "labels.csv", clean / "labels.csv")
            argv = _train_argv(run, "vq", clean, size.wide_vq_epochs, None, WIDE_SET)
            if not bench.cli(argv):
                raise Abort("vq stage failed")
        ckpt = _last_epoch(run, size.wide_vq_epochs)
        outputs = [
            _tokenize_and_profile(bench, ckpt, clean, traced=k % 2 == 0)
            for k in range(passes_for(bench.seconds, WIDE_PASS_S))
        ]
    finally:
        bench.stop_timed()
    summary = bench.check_stage(run)
    bench.measures["vq_final_loss"] = _final_loss(summary)
    bench.measures["vq_steps_per_s"] = bench.stage_rate([run])
    bench.measures["tokenize_samples_per_s"] = bench.marks.tokenize_rate()
    bench.problems += checks.same(outputs, "tokens and profiles")
    bench.check_tokens(_config(run), channels=19, seconds=WIDE_SECONDS)


def _tokenize_and_profile(bench: Bench, ckpt: Path, data: Path, traced: bool) -> tuple:
    """Load the trained tokenizer, then tokenize and profile every recording."""
    out = []
    with bench.unit(traced, paired=True):
        model, _ = training.load_model(ckpt)
        client = training.make_llm_client(model.cfg["llm"])
        for name, rec, _ in load_corpus(data):
            got = bench.op(model.tokenize_recording, rec)
            prof = bench.op(training.profile_recording, rec, model, name, client)
            out.append((
                None if got is None else got[0].indices.tobytes(),
                None if prof is None else prof[2].profile.flat_text(),
            ))
    return tuple(out)


# ---------------------------------------------------------------------------
# lm_infer: forward passes only, from a quick-start checkpoint
# ---------------------------------------------------------------------------

def lm_infer(bench: Bench) -> None:
    s, size = bench.seed, bench.size
    data = bench.synth_repeated([
        ("infer-data", _synth(s + 1, size.infer_per_class, "synthetic-4")),
    ])["infer-data"]
    ckpt = _recipe_checkpoint(bench)
    n = 3 * size.infer_per_class
    reports, outputs, eval_walls = [], [], []
    bench.start_timed()
    try:
        for k in range(passes_for(bench.seconds, INFER_PASS_S)):
            out = bench.work / f"report{k}"
            with bench.unit(k % 2 == 0, paired=True):
                t0 = _clock()
                ok = bench.cli(_eval_argv(out, ckpt, data), ops=n)
                eval_walls.append(_clock() - t0)
                model, _ = training.load_model(ckpt)
                toks = []
                for _, rec, _ in load_corpus(data):
                    got = bench.op(model.tokenize_recording, rec)
                    toks.append(None if got is None else got[0].indices.tobytes())
            if not ok:
                raise Abort("eval failed")
            reports.append(json.loads((out / "report.json").read_text()))
            outputs.append(tuple(toks))
    finally:
        bench.stop_timed()
    bench.samples["eval_s"] = eval_walls
    bench.measures["eval_samples_per_s"] = n * len(eval_walls) / sum(eval_walls)
    bench.measures["tokenize_samples_per_s"] = bench.marks.tokenize_rate()
    bench.measures["balanced_accuracy"] = reports[0]["metrics"]["balanced_accuracy"]
    for report in reports:
        bench.problems += checks.eval_report(report, size.ba_floor)
    bench.problems += checks.same(
        [json.dumps(r["per_sample"], sort_keys=True) for r in reports], "eval report"
    )
    bench.problems += checks.same(outputs, "tokens")
    bench.check_tokens(model.cfg, channels=4, seconds=SYNTH_SECONDS)


def _recipe_checkpoint(bench: Bench) -> Path:
    """The quick-start checkpoint lm_infer starts from.

    Its inputs are pinned (RECIPE_SEED), so it is the same bytes on every run
    of the same sources. The first lm_infer run in a checkout trains it
    during set-up, in a child process so that training memory stays out of
    this process's peak RSS, and keeps it under ``.perfbench-out/cache``,
    keyed by the size and digests of the sources and of this file. Later runs check its digest and
    reuse it: an inference user trains once. Training speed is measured by
    quickstart, which trains the same recipe on every run.
    """
    recipe_code = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]
    final = bench.cache / f"recipe-{bench.size_name}-{bench.source_digest}-{recipe_code}"
    t0 = _clock()
    built = not (final / "recipe.json").is_file()
    if built:
        tmp = bench.cache / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--recipe-child", str(tmp), "--size", bench.size_name]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise Abort(f"set-up training failed with exit code {proc.returncode}")
        try:
            tmp.rename(final)
        except OSError:  # another run built it first; use that one
            shutil.rmtree(tmp, ignore_errors=True)
    recipe = json.loads((final / "recipe.json").read_text())
    ckpt = final / "checkpoint"
    bench.problems += recipe["problems"]
    bench.problems += checks.same([recipe["digest"], checks.tree_digest(ckpt)],
                                  "cached checkpoint digest")
    bench.setup_parts["checkpoint_s"] = _clock() - t0
    bench.samples["checkpoint_built"] = [built]
    return ckpt


def recipe_child(root: Path, size_name: str) -> None:
    """Body of the set-up child: train the recipe, check its outputs, and
    keep only the final sft checkpoint."""
    bench = Bench(root, RECIPE_SEED, size_name, 0.0, trace=False)
    data = bench.synth_repeated([("train-data", _synth(RECIPE_SEED, bench.size.per_class,
                                                        "synthetic-4"))])["train-data"]
    runs = train_recipe(bench, data, root / "runs")
    for stage in ("vq", "cpt", "sft"):
        bench.check_stage(runs[stage][0])
    ckpt = root / "checkpoint"
    _last_epoch(runs["sft"][0], bench.size.sft_epochs).rename(ckpt)
    for leftover in [root / "runs", *root.glob("setup*")]:
        shutil.rmtree(leftover)
    out = {"digest": checks.tree_digest(ckpt), "problems": bench.problems}
    (root / "recipe.json").write_text(json.dumps(out))


WORKLOADS = {"quickstart": quickstart, "signal_wide": signal_wide, "lm_infer": lm_infer}
