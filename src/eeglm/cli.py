"""Command-line surface tying the pipeline stages together."""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .config import STAGES, parse_override, resolve_config
from .errors import DataError, EeglmError, UsageError, read_json_object
from .evaluate import evaluate_checkpoint
from .profiler import SemanticProfile
from .quantizer import save_tokens
from .refiner import attention_rows
from .signal_io import DEFAULT_BAND, WORK_FS, load_recording, preprocess, save_container
from .synth import make_dataset
from .training import load_model, make_llm_client, profile_recording, profile_signal, run_stage

ATTN_HEADER = ("expert", "channel", "patch", "weight")

# mallopt(3) parameters and the ceilings glibc's dynamic thresholds reach on 64-bit
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20))


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds, so the heap a training step
    frees stays mapped for the next step instead of going back to the kernel
    and being faulted in again page by page. No-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc: macOS, Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in MALLOC_THRESHOLDS:
        mallopt(param, value)


# OpenBLAS's thread-count setters, under the names its builds export (numpy's
# wheels bundle scipy-openblas64); the getter twins are perfbench/envinfo.py's
BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@functools.cache
def _blas_thread_setter():
    """The first of BLAS_THREAD_SETTERS that numpy's multiarray extension
    resolves, through the OpenBLAS it links; None without one."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in BLAS_THREAD_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            return setter
    return None


def _pin_blas_threads() -> None:
    """Run OpenBLAS on one thread, whatever OPENBLAS_NUM_THREADS says. The
    pipeline's matrices are too small for a second thread to pay: it costs
    memory, stalls a step for milliseconds when the other core is busy, and
    splits a product differently, which changes the bytes a run writes.
    No-op where numpy's BLAS has no such setter."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)


def _echo_config(out_dir: Path, cfg: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args, cfg: dict) -> int:
    out = Path(args.out)
    manifest = make_dataset(
        out,
        n_per_class=args.per_class,
        classes=tuple(cfg["data"]["classes"]),
        montage=args.montage,
        fs=args.fs,
        seconds=args.seconds,
        noise=args.noise,
        seed=cfg["seed"],
    )
    _echo_config(out, cfg)
    print(f"wrote {len(manifest['samples'])} samples to {out}")
    return 0


def cmd_preprocess(args, cfg: dict) -> int:
    rec = load_recording(args.input, fs=args.fs)
    notch = None if args.notch == 0.0 else args.notch
    out = preprocess(rec, target_fs=args.target_fs, low=args.low, high=args.high, notch=notch)
    provenance = {
        "source": str(args.input),
        "source_fs": rec.fs,
        "resample_fs": args.target_fs,
        "band": [args.low, args.high],
        "notch": notch,
        "scaling": "median-iqr",
        "order": ["resample", "bandpass+notch", "robust-scale"],
        "seed": cfg["seed"],
    }
    save_container(out, args.out, extra_meta={"provenance": provenance})
    print(f"wrote {out.n_channels}x{out.n_samples} container to {args.out}")
    return 0


def cmd_tokenize(args, cfg: dict) -> int:
    from .signal_io import load_container

    model, _ = load_model(args.checkpoint)
    rec = load_container(args.container)
    tokens, _ = model.tokenize_recording(rec)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_tokens(args.out, [tokens], model.quantizer.cfg.num_codes)
    print(f"wrote {tokens.indices.size} tokens ({tokens.channels}x{tokens.patches}) to {args.out}")
    return 0


def cmd_profile(args, cfg: dict) -> int:
    from .signal_io import load_container
    from .topology import build_hierarchy, get_montage

    rec = load_container(args.container)
    hier = build_hierarchy(get_montage(cfg["data"]["montage"]))
    name = args.sample_name or Path(args.container).name
    features, prompt, result = profile_signal(
        rec, hier, cfg["data"], name, make_llm_client(cfg["llm"])
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "prompt.txt").write_text(prompt)
    (out / "features.json").write_text(json.dumps(asdict(features), indent=2, default=float))
    record = result.profile.to_dict()
    record["_retries"] = result.retries
    (out / "profile.json").write_text(json.dumps(record, indent=2))
    _echo_config(out, cfg)
    print(f"wrote prompt.txt, features.json, profile.json to {out}")
    return 0


def cmd_train(args, cfg: dict) -> int:
    run_dir = Path(args.out)
    summary = run_stage(cfg, run_dir, resume=args.resume)
    print(f"stage {cfg['stage']} finished after {summary['steps']} steps -> {run_dir}")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    out = Path(args.out) if args.out else None
    report = evaluate_checkpoint(args.checkpoint, args.data, out_dir=out)
    print(json.dumps({"task": report["task"], "metrics": report["metrics"]}, indent=2))
    return 0


def cmd_attn_export(args, cfg: dict) -> int:
    from .signal_io import load_container

    model, _ = load_model(args.checkpoint)
    rec = load_container(args.container)
    tokens, z_q = model.tokenize_recording(rec)
    if args.profile:
        record = read_json_object(args.profile, DataError, "profile file")
        try:
            text = SemanticProfile.from_dict(record).flat_text()
        except DataError as exc:
            raise DataError(f"profile file {args.profile}: {exc}") from None
    else:
        _, _, result = profile_recording(
            rec, model, Path(args.container).name, make_llm_client(cfg["llm"])
        )
        text = result.profile.flat_text()
    q_calib = model.refiner.calibrate(model.embedder.embed(text))
    amap = model.refiner.aggregate(q_calib, z_q)[1].mean(axis=0)
    n_experts = amap.shape[0]
    c, p = tokens.channels, tokens.patches
    # renormalize across channels within each (expert, patch) group so the
    # exported weights read as per-patch spatial distributions
    grouped = amap.reshape(n_experts, c, p)
    grouped = grouped / grouped.sum(axis=1, keepdims=True)
    rows = attention_rows(grouped.reshape(n_experts, c * p), rec.channels, p)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(ATTN_HEADER)
        for expert, channel, patch_idx, weight in rows:
            writer.writerow([expert, channel, patch_idx, repr(weight)])
    print(f"wrote {len(rows)} attention rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eeglm",
        description="Signal-to-language-model pipeline: preprocess, tokenize, "
        "profile, train, evaluate, export.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="output directory or file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry, e.g. --set optimizer.lr=0.01",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--per-class", type=int, default=8)
    p.add_argument("--montage", default="synthetic-4")
    p.add_argument("--fs", type=float, default=200.0)
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--noise", type=float, default=0.25)

    p = sub.add_parser("preprocess", help="resample, filter and scale a recording")
    p.add_argument("input", help="container directory or CSV file")
    p.add_argument("--fs", type=float, default=None, help="sampling rate for CSV input")
    p.add_argument("--target-fs", type=float, default=WORK_FS)
    p.add_argument("--low", type=float, default=DEFAULT_BAND[0])
    p.add_argument("--high", type=float, default=DEFAULT_BAND[1])
    p.add_argument("--notch", type=float, default=50.0, help="notch frequency (0 disables)")

    p = sub.add_parser("tokenize", help="quantize a container into discrete tokens")
    p.add_argument("--container", required=True)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("profile", help="verbalize features and fetch a semantic profile")
    p.add_argument("--container", required=True)
    p.add_argument("--sample-name", default=None)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage", choices=STAGES, default=None)
    p.add_argument("--data", default=None, help="dataset directory")
    p.add_argument("--init-from", default=None, help="checkpoint of the previous stage")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("eval", help="score a labeled dataset through a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("attn-export", help="export expert attention weights as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--container", required=True)
    p.add_argument("--profile", default=None, help="profile.json to calibrate with")

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "tokenize": cmd_tokenize,
    "profile": cmd_profile,
    "train": cmd_train,
    "eval": cmd_eval,
    "attn-export": cmd_attn_export,
}

NEEDS_OUT = {"synth", "preprocess", "tokenize", "profile", "train", "attn-export"}
OUT_IS_FILE = {"tokenize", "attn-export"}  # the other commands write --out as a directory


def _check_out(command: str, out: str) -> None:
    """Refuse an --out that cannot be written: a file --out that is a
    directory, or one under an existing file (of --out, when it names a
    directory, and its parents, the nearest that exists must be one)."""
    path = Path(out)
    if command in OUT_IS_FILE and path.is_dir():
        raise UsageError(f"--out {out} is a directory, not a file")
    candidates = path.parents if command in OUT_IS_FILE else (path, *path.parents)
    nearest = next(p for p in candidates if p.exists())
    if not nearest.is_dir():
        raise UsageError(f"--out {out}: {nearest} exists and is not a directory")


def _resolve(args) -> dict:
    overrides = [parse_override(spec) for spec in args.set]
    if args.seed is not None:
        overrides.append({"seed": args.seed})
    if args.command == "train":
        if args.stage:
            overrides.append({"stage": args.stage})
        if args.data:
            overrides.append({"data": {"train_dir": args.data}})
        if args.init_from:
            overrides.append({"train": {"init_from": args.init_from}})
        if args.epochs is not None:
            overrides.append({"train": {"epochs": args.epochs}})
    return resolve_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    _pin_malloc_thresholds()
    _pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in NEEDS_OUT and not args.out:
            raise UsageError(f"command {args.command!r} needs --out")
        if args.out:
            _check_out(args.command, args.out)
        cfg = _resolve(args)
        return COMMANDS[args.command](args, cfg)
    except EeglmError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
