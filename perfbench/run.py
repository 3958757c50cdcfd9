"""eeglm benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of an eeglm checkout:

    python3 perfbench/run.py --workload quickstart --seed 7 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``quickstart``,
``signal_wide`` and ``lm_infer``. With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric instead,
derived from spans recorded around the calls into each module. Lines before
it list every reading with its unit, the environment and the checks.

Exit codes: 0 when every output check passed, 1 when a check failed (the
result line says ``"correct": false``), 2 when the current directory is not
an eeglm checkout (no result line is printed).

Everything a run writes goes under ``.perfbench-out/`` in the checkout: its
work directory, removed at the end, and ``results/``, which keeps the full
result record of every run and, for traced runs, the spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import eeglm.cli, eeglm.evaluate; print(time.perf_counter() - t)"
)
# units of the readings that BENCHMARK.json does not list as end-to-end
# metrics; they are printed for people, and the LM-side ones reappear as
# per-layer metrics of the traced run
READING_UNITS = {
    "vq_steps_per_s": "1/s",
    "vq_final_loss": "loss",
    "cpt_steps_per_s": "1/s",
    "sft_steps_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "balanced_accuracy": "ratio",
    "cpt_final_loss": "loss",
    "sft_final_loss": "loss",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny serves the self-test only")
    p.add_argument("--keep", action="store_true", help="keep the work directory")
    # internal: the set-up child of lm_infer
    p.add_argument("--recipe-child", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _use_checkout(root: Path) -> float:
    """Cap BLAS threads at nproc, put the checkout's sources first on the
    path, and return how long importing eeglm took."""
    for var in envinfo.THREAD_VARS:
        os.environ[var] = str(envinfo.nproc())
    sys.path[:0] = [str(root / "src"), str(HERE)]
    t0 = time.perf_counter()
    import eeglm.cli  # noqa: F401
    import eeglm.evaluate  # noqa: F401

    return time.perf_counter() - t0


def _child_import_s(root: Path) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(root / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def layer_metrics(bench, import_times: list[float]) -> dict[str, float]:
    """Per-layer self times, call counts and ratios from the traced units."""
    tr = bench.tracer
    own = tr.self_times()
    c = tr.counts

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    def n(*names):
        return sum(c[name + ".calls"] for name in names)

    def ratio(a, b):
        return a / b if b else 0.0

    losses = ("losses.dsha", "losses.ntp", "losses.cpt", "losses.sft")
    codes = {int(i) for seq in bench.marks.tokens for i in seq.indices}
    num_codes = bench.num_codes
    walls = bench.paired_walls
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    readings = bench.measures
    return {
        "autodiff.backward_s": s("autodiff.backward"),
        "autodiff.backward_calls": n("autodiff.backward"),
        "autodiff.nodes_per_step": ratio(c["autodiff.nodes"], n("autodiff.backward")),
        "autodiff.gc_collected": c["gc.collected"],
        "autodiff.gc_pause_s": tr.gc_pause_s,
        "optim.adamw_s": s("optim.adamw"),
        "optim.adamw_calls": n("optim.adamw"),
        "optim.clip_s": s("optim.clip"),
        "optim.clip_calls": n("optim.clip"),
        "optim.clip_fired": ratio(c["optim.clip_fired"], n("optim.clip")),
        "encoder.forward_s": s("encoder.forward"),
        "encoder.forward_calls": n("encoder.forward"),
        "quantizer.forward_s": s("quantizer.forward"),
        "quantizer.forward_calls": n("quantizer.forward"),
        "quantizer.code_usage": len(codes) / num_codes,
        "quantizer.dead_codes": num_codes - len(codes),
        "signal_io.preprocess_s": s("signal_io.preprocess"),
        "signal_io.preprocess_calls": n("signal_io.preprocess"),
        "signal_io.load_s": s("signal_io.load"),
        "signal_io.load_calls": n("signal_io.load"),
        "profiler.features_s": s("profiler.features"),
        "profiler.generate_s": s("profiler.generate"),
        "profiler.calls": n("profiler.generate"),
        "profiler.retries": c["profiler.retries"],
        "refiner.forward_s": s("refiner.forward"),
        "refiner.forward_calls": n("refiner.forward"),
        "sequences.assemble_s": s("sequences.assemble"),
        "sequences.assemble_calls": n("sequences.assemble"),
        "sequences.mean_len": ratio(c["sequences.tokens"], n("sequences.assemble")),
        "backbone.logits_s": s("backbone.logits"),
        "backbone.logits_calls": n("backbone.logits"),
        "backbone.head_rows_read_ratio": ratio(c["backbone.rows_read"], c["backbone.rows_computed"]),
        "losses.self_s": s(*losses),
        "losses.calls": n(*losses),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.save_calls": n("checkpoint.save"),
        "checkpoint.save_bytes": c["checkpoint.save_bytes"],
        "checkpoint.load_s": s("checkpoint.load"),
        "checkpoint.load_calls": n("checkpoint.load"),
        "training.prepare_s": s("training.prepare"),
        "training.prepare_calls": n("training.prepare"),
        "training.stage_self_s": s("training.stage"),
        "training.stage_calls": n("training.stage"),
        "training.vq_steps_per_s": readings.get("vq_steps_per_s", 0.0),
        "training.vq_final_loss": readings.get("vq_final_loss", 0.0),
        "training.cpt_steps_per_s": readings.get("cpt_steps_per_s", 0.0),
        "training.sft_steps_per_s": readings.get("sft_steps_per_s", 0.0),
        "training.cpt_final_loss": readings.get("cpt_final_loss", 0.0),
        "training.sft_final_loss": readings.get("sft_final_loss", 0.0),
        "evaluate.score_s": s("evaluate.score"),
        "evaluate.score_calls": n("evaluate.score"),
        "evaluate.samples_per_s": readings.get("eval_samples_per_s", 0.0),
        "evaluate.balanced_accuracy": readings.get("balanced_accuracy", 0.0),
        "cli.import_s": statistics.median(import_times),
        "cli.import_calls": len(import_times),
        "trace.overhead_pct": 100.0 * overhead,
        "trace.spans": len(tr.spans),
    }


def run(args, root: Path, spec: dict) -> int:
    import_times = [_use_checkout(root)]
    import_times += [_child_import_s(root) for _ in range(2)]

    import workloads

    work = root / ".perfbench-out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = root / ".perfbench-out" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    bench = workloads.Bench(
        work, args.seed, args.size, args.seconds, trace=bool(args.trace),
        cache=root / ".perfbench-out" / "cache",
        source_digest=envinfo.source_digest(root / "src" / "eeglm"),
    )
    try:
        try:
            workloads.WORKLOADS[args.workload](bench)
        except workloads.Abort as e:
            bench.problems.append(f"aborted: {e}")
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)

    bench.setup_parts["import_s"] = statistics.median(import_times)
    bench.measures["setup_s"] = sum(bench.setup_parts.values())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace and not bench.problems:
        available = layer_metrics(bench, import_times)
    else:
        available = bench.measures
    metrics = {
        m["name"]: {"value": available[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in available
    }
    missing = [m["name"] for m in wanted if m["name"] not in available]
    if missing and not bench.problems:
        bench.problems.append(f"benchmark produced no value for {missing}")
    correct = not bench.problems and bench.failed == 0

    env = envinfo.record(root, args.workload, args.seed, bool(args.trace))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(READING_UNITS)
    for name, value in sorted(bench.measures.items()):
        print(f"reading {name} = {value!r} {units.get(name, '')}")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print("setup " + json.dumps(bench.setup_parts))
    print("env " + json.dumps(env))
    print(f"ops attempted={bench.attempted} failed={bench.failed} "
          f"by_exit_code={dict(bench.failures_by_exit_code)}")
    for problem in bench.problems:
        print(f"check FAILED: {problem}")
    print(f"checks {'passed' if correct else 'FAILED'}")

    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env, "setup": bench.setup_parts, "readings": bench.measures,
        "metrics": metrics, "problems": bench.problems, "attempted": bench.attempted,
        "failed": bench.failed, "failures_by_exit_code": dict(bench.failures_by_exit_code),
        "samples": {"epoch_ends": bench.marks.epoch_ends, "tokenize_s": bench.marks.tokenize_s,
                    "paired_walls": bench.paired_walls, **bench.samples},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if bench.tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for span in bench.tracer.span_records():
                f.write(json.dumps(span) + "\n")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "eeglm" / "__init__.py").is_file():
        print(f"error: {root} is not an eeglm checkout (no src/eeglm); "
              "run from the root of one", file=sys.stderr)
        return 2
    if args.recipe_child:
        _use_checkout(root)
        import workloads

        workloads.recipe_child(Path(args.recipe_child), args.size)
        return 0
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    return run(args, root, spec)


if __name__ == "__main__":
    raise SystemExit(main())
