"""Run the README quick start, a stopped and resumed copy of its training,
and the other subcommands, then hash every file.

Usage, from the root of an eeglm checkout::

    PYTHONPATH=<checkout>/src python3 scripts/quickstart_digest.py OUT

Every command goes through ``eeglm.cli.main`` inside the empty directory
OUT, with the relative paths the README uses, so two checkouts write the
same files under the same names. The resumed copy stops vq, cpt and sft
after 7, 3 and 4 epochs and ``--resume``s them to the README's 20, 8 and 10,
in run directories of its own (``resume-vq``, ``resume-cpt``,
``resume-sft``), each stage starting from the resumed one before it. The
commands' own output goes to stderr. If a command fails, the script stops
with its exit code. Otherwise it prints ``sha256  relpath`` for every file
under OUT, sorted by path, so that ``diff`` of two listings shows whether
two checkouts write the same bytes.

Some products' bytes depend on the BLAS thread count, so the script sets
``OPENBLAS_NUM_THREADS=1`` before it imports eeglm, unless the caller set
it, and prints ``OPENBLAS_NUM_THREADS=<value>`` as the listing's first line.
"""

from __future__ import annotations

import hashlib
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

# before numpy loads: OpenBLAS reads its thread count once, at import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from eeglm.cli import main  # noqa: E402

# the README's SET, split on whitespace as the shell splits an unquoted $SET
SET = """--set data.montage="synthetic-4" --set quantizer.num_codes=32
     --set quantizer.code_dim=8 --set optimizer.lr=0.003
     --set schedule.warmup_steps=20"""

QUICK_START = (
    "--seed 7 --out train-data synth --per-class 8 --montage synthetic-4",
    "--seed 8 --out eval-data  synth --per-class 4 --montage synthetic-4",
    "--seed 7 --out run-vq  $SET train --stage vq  --data train-data --epochs 20",
    "--seed 7 --out run-cpt $SET train --stage cpt --data train-data --epochs 8"
    " --init-from run-vq/checkpoints/epoch_0019",
    "--seed 7 --out run-sft $SET train --stage sft --data train-data --epochs 10"
    " --init-from run-cpt/checkpoints/epoch_0007",
    "--seed 7 --out report $SET eval"
    " --checkpoint run-sft/checkpoints/epoch_0009 --data eval-data",
)

RESUMED = (
    "--seed 7 --out resume-vq  $SET train --stage vq  --data train-data --epochs 7",
    "--seed 7 --out resume-vq  $SET train --stage vq  --data train-data --epochs 20 --resume",
    "--seed 7 --out resume-cpt $SET train --stage cpt --data train-data --epochs 3"
    " --init-from resume-vq/checkpoints/epoch_0019",
    "--seed 7 --out resume-cpt $SET train --stage cpt --data train-data --epochs 8"
    " --init-from resume-vq/checkpoints/epoch_0019 --resume",
    "--seed 7 --out resume-sft $SET train --stage sft --data train-data --epochs 4"
    " --init-from resume-cpt/checkpoints/epoch_0007",
    "--seed 7 --out resume-sft $SET train --stage sft --data train-data --epochs 10"
    " --init-from resume-cpt/checkpoints/epoch_0007 --resume",
)

OTHER_COMMANDS = (
    "--out clean preprocess train-data/sample_0000",
    "--out tokens.txt tokenize --container clean"
    " --checkpoint run-vq/checkpoints/epoch_0019",
    "$SET --out prof profile --container clean",
    "--out attn.csv attn-export --checkpoint run-sft/checkpoints/epoch_0009"
    " --container clean --profile prof/profile.json",
    "--out attn-stub.csv attn-export --checkpoint run-sft/checkpoints/epoch_0009"
    " --container clean",
)


def run_commands(out: Path) -> int:
    """Run every command inside `out`; the first non-zero exit code, or 0."""
    for line in QUICK_START + RESUMED + OTHER_COMMANDS:
        argv = line.replace("$SET", SET).split()
        with redirect_stdout(sys.stderr):
            code = main(argv)
        if code != 0:
            print(f"failed with exit code {code}: eeglm {' '.join(argv)}", file=sys.stderr)
            return code
    return 0


def digests(root: Path) -> list[str]:
    """`sha256  relpath` for every file under `root`, sorted by path."""
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
        for path in sorted(p for p in root.rglob("*") if p.is_file())
    ]


def run(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    os.chdir(out)
    print(f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}", flush=True)
    code = run_commands(out)
    if code != 0:
        return code
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
