"""Run the README quick start and the other subcommands, stop and resume
the quick start's training runs in place, then hash every file.

Usage, from the root of an eeglm checkout::

    PYTHONPATH=<checkout>/src python3 scripts/quickstart_digest.py OUT
    PYTHONPATH=<checkout>/src python3 scripts/quickstart_digest.py --check FILE

The commands come from ``recipe.py``, the table of the README recipe.
Every command goes through ``eeglm.cli.main`` inside the empty directory
OUT, with the relative paths the README uses, so two checkouts write the
same files under the same names. The commands' own output goes to stderr.
If a command fails, the script stops with its exit code.

Then, for vq, cpt and sft in that order, the script stops the stage's
finished run where ``recipe.STOPS`` says (after 7, 3 and 4 epochs): it
deletes the later epoch checkpoints and ``artifacts/summary.json``, and
leaves the later ``metrics.csv`` rows for ``--resume`` to drop. It runs
the stage's own command with ``--resume``, and compares every file under
the run directory with the bytes it held before the stop. If any differs,
it prints the run directory and the differing paths to stderr and exits 1:
a resumed run must write the bytes of a run never stopped. This check
needs no committed listing, so it holds in any environment.

Otherwise the script prints ``sha256  relpath`` for every file under OUT,
sorted by path, so that ``diff`` of two listings shows whether two
checkouts write the same bytes.

``eeglm.cli.main`` runs OpenBLAS on one thread, so the bytes do not
depend on ``OPENBLAS_NUM_THREADS``. The listing's first line records what
they may depend on besides the code: ``numpy=<version> scipy=<version>
simd=<targets>``, where the targets are numpy's active SIMD dispatch
targets (``NPY_DISABLE_CPU_FEATURES`` removes some).

With ``--check FILE`` the script compares its listing with the one in FILE
(``scripts/quickstart_digest.expected`` is the committed one) instead of
printing it, and makes the listing in a temporary directory. It prints
"environment differs" first if the first lines differ, then every path
whose hash differs, is missing or is new, grouped by run directory, and
exits 1. When every file has its expected bytes it says so and exits 0,
also when only the environment differs: that line is a note, which says
where to look when bytes do differ. A change that alters the written bytes
on purpose updates the committed listing in the same commit.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import numpy
import scipy

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import recipe
from eeglm.cli import main


def commands() -> list[list[str]]:
    """The quick start, then the other subcommands on its products."""
    vq, sft = recipe.last_checkpoint("vq"), recipe.last_checkpoint("sft")
    attn = ["attn-export", "--checkpoint", sft, "--container", "clean"]
    return [
        *recipe.quick_start(),
        ["--out", "clean", "preprocess", "train-data/sample_0000"],
        ["--out", "tokens.txt", "tokenize", "--container", "clean", "--checkpoint", vq],
        [*recipe.SET, "--out", "prof", "profile", "--container", "clean"],
        ["--out", "attn.csv", *attn, "--profile", "prof/profile.json"],
        ["--out", "attn-stub.csv", *attn],
    ]


def header() -> str:
    """The listing's first line: the environment the bytes depend on."""
    simd = ",".join(f for f in __cpu_dispatch__ if __cpu_features__[f])
    return f"numpy={numpy.__version__} scipy={scipy.__version__} simd={simd}"


def run_command(argv: list[str]) -> int:
    """Run one command, its output on stderr; its exit code."""
    with redirect_stdout(sys.stderr):
        code = main(argv)
    if code != 0:
        print(f"failed with exit code {code}: eeglm {' '.join(argv)}", file=sys.stderr)
    return code


def stop_and_resume(argv: list[str], stop: int) -> int:
    """Stop the finished run of training command `argv` after `stop` epochs,
    --resume it with `argv`, and compare every file under its run directory
    with the bytes it held before the stop: 1 when any differs, after
    naming the run directory and the differing paths; a failing command's
    exit code; else 0."""
    run_dir = Path(recipe.value(argv, "--out"))
    before = digests(run_dir)
    for ckpt in run_dir.glob("checkpoints/epoch_*"):
        if int(ckpt.name.removeprefix("epoch_")) >= stop:
            shutil.rmtree(ckpt)
    (run_dir / "artifacts" / "summary.json").unlink()
    if code := run_command([*argv, "--resume"]):
        return code
    differ = sorted({line.split("  ", 1)[1] for line in set(before) ^ set(digests(run_dir))})
    if differ:
        print(f"{run_dir}: {len(differ)} file(s) differ after the stop and --resume", file=sys.stderr)
        print("\n".join(f"  {path}" for path in differ), file=sys.stderr)
        return 1
    return 0


def run_commands() -> int:
    """Run every command, then stop and resume each training run, in the
    current directory; the first non-zero exit code, or 0."""
    for argv in commands():
        if code := run_command(argv):
            return code
    for argv in recipe.training():
        if code := stop_and_resume(argv, recipe.STOPS[recipe.value(argv, "--stage")]):
            return code
    return 0


def digests(root: Path) -> list[str]:
    """`sha256  relpath` for every file under `root`, sorted by path."""
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
        for path in sorted(p for p in root.rglob("*") if p.is_file())
    ]


def compare(expected: list[str], actual: list[str]) -> list[str]:
    """The report of how listing `actual` differs from `expected`, one line
    each, empty when they match: the header first, then the paths grouped
    by run directory (the first path component; "." for top-level files)."""
    report = []
    if expected[:1] != actual[:1]:
        report.append(f"environment differs: expected {expected[:1]}, got {actual[:1]}")
    want, got = ({line.split("  ", 1)[1]: line for line in rows[1:]} for rows in (expected, actual))
    groups: dict[str, list[str]] = defaultdict(list)
    for path in sorted(want.keys() | got.keys()):
        if want.get(path) != got.get(path):
            kind = "missing" if path not in got else "new" if path not in want else "changed"
            groups[path.split("/", 1)[0] if "/" in path else "."].append(f"  {kind}  {path}")
    for run_dir, lines in sorted(groups.items()):
        report += [f"{run_dir}: {len(lines)} file(s) differ", *lines]
    return report


def make_listing(out: Path) -> list[str] | int:
    """Run every command in the empty directory `out` and list its files,
    header first; an exit code instead if `out` is not empty or a command
    fails."""
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    os.chdir(out)
    code = run_commands()
    if code != 0:
        return code
    return [header(), *digests(out)]


def check(expected: Path) -> int:
    """Compare the listing made in a temporary directory with the one in
    `expected`."""
    want = expected.read_text().splitlines()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="eeglm-digest-") as tmp:
        try:
            listing = make_listing(Path(tmp))
        finally:
            os.chdir(cwd)  # leave the directory before it is removed
    if isinstance(listing, int):
        return listing
    report = compare(want, listing)
    same = want[1:] == listing[1:]
    if same:
        report.append(f"same bytes as {expected}: all {len(listing) - 1} files")
    print("\n".join(report))
    return 0 if same else 1


def run(argv: list[str]) -> int:
    if len(argv) != (2 if argv[:1] == ["--check"] else 1):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--check":
        return check(Path(argv[1]).resolve())
    listing = make_listing(Path(argv[0]))
    if isinstance(listing, int):
        return listing
    print("\n".join(listing))
    return 0


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
