"""Balanced accuracy of the README quick start over training seeds 1 to 12.

Usage, from the root of an eeglm checkout::

    PYTHONPATH=src python3 scripts/seed_sweep.py [SEED ...]

For each seed (1 to 12 when none is given) the script runs the six
commands of ``recipe.py`` through ``eeglm.cli.main`` in an empty temporary
directory, with that seed in place of the recipe's for the training data
and every run; the eval data keep the recipe's seed 8. It prints one line
per seed, the seed and the balanced accuracy of ``report/report.json``,
and last how many seeds reached 1.0. The commands' own output goes to
stderr; if one fails, the script stops with its exit code.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import recipe
from eeglm.cli import main

SEEDS = range(1, 13)


def commands(seed: int) -> list[list[str]]:
    """The quick start with `seed` wherever the recipe uses its own seed."""
    return [
        recipe.replace(argv, "--seed", str(seed)) if recipe.value(argv, "--seed") == recipe.SEED else argv
        for argv in recipe.quick_start()
    ]


def balanced_accuracy(seed: int) -> float:
    """The quick start's balanced accuracy at `seed`; a failing command
    exits the script with its exit code."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix=f"eeglm-seed-{seed}-") as tmp:
        os.chdir(tmp)
        try:
            for argv in commands(seed):
                with redirect_stdout(sys.stderr):
                    code = main(argv)
                if code != 0:
                    print(f"seed {seed} failed with exit code {code}: eeglm {' '.join(argv)}", file=sys.stderr)
                    raise SystemExit(code)
            return float(json.loads(Path("report/report.json").read_text())["metrics"]["balanced_accuracy"])
        finally:
            os.chdir(cwd)  # leave the directory before it is removed


def run(argv: list[str]) -> int:
    try:
        seeds = [int(s) for s in argv] or list(SEEDS)
    except ValueError:
        print(__doc__, file=sys.stderr)
        return 2
    print("seed  balanced_accuracy")
    perfect = 0
    for seed in seeds:
        result = balanced_accuracy(seed)
        perfect += result == 1.0
        print(f"{seed:4d}  {result:.4f}", flush=True)
    print(f"{perfect} of {len(seeds)} seeds reach 1.0")
    return 0


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
