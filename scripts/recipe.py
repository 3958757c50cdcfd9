"""The README quick start as a table: its settings and its six commands.

The scripts in this directory and the tests take the recipe from here, and
a test checks the README's "Quick start" block against it, so the recipe is
stated once in code. Every command is an argv for ``eeglm.cli.main``:

    from recipe import quick_start
    for argv in quick_start():
        cli.main(argv)

Importing the module runs nothing. It needs the standard library only.
"""

from __future__ import annotations

SEED = "7"  # the --seed of the training data and of every run

# the README's SET, split on whitespace as the shell splits an unquoted $SET
SET = (
    "--set", 'data.montage="synthetic-4"', "--set", "quantizer.num_codes=32",
    "--set", "quantizer.code_dim=8", "--set", "optimizer.lr=0.003",
    "--set", "schedule.warmup_steps=20",
)

# The six commands, in order. "$SET" stands for SET.
COMMANDS = (
    ("--seed", SEED, "--out", "train-data", "synth", "--per-class", "8", "--montage", "synthetic-4"),
    ("--seed", "8", "--out", "eval-data", "synth", "--per-class", "4", "--montage", "synthetic-4"),
    ("--seed", SEED, "--out", "run-vq", "$SET",
     "train", "--stage", "vq", "--data", "train-data", "--epochs", "20"),
    ("--seed", SEED, "--out", "run-cpt", "$SET",
     "train", "--stage", "cpt", "--data", "train-data", "--epochs", "8",
     "--init-from", "run-vq/checkpoints/epoch_0019"),
    ("--seed", SEED, "--out", "run-sft", "$SET",
     "train", "--stage", "sft", "--data", "train-data", "--epochs", "10",
     "--init-from", "run-cpt/checkpoints/epoch_0007"),
    ("--seed", SEED, "--out", "report", "$SET",
     "eval", "--checkpoint", "run-sft/checkpoints/epoch_0009", "--data", "eval-data"),
)

# the epochs after which the digest stops each training stage's finished
# run, before it --resumes the run to the quick start's epochs in place
STOPS = {"vq": 7, "cpt": 3, "sft": 4}

# The 19-channel set: the 10-20 montage at 500 Hz, 6 s recordings; trained
# with the quantizer at its package defaults and the quick start's
# optimizer settings.
WIDE_MONTAGE, WIDE_FS, WIDE_SECONDS = "builtin-1020", 500.0, 6.0
WIDE_SYNTH = ("--montage", WIDE_MONTAGE, "--fs", f"{WIDE_FS:g}", "--seconds", f"{WIDE_SECONDS:g}")
WIDE_SET = (
    "--set", f'data.montage="{WIDE_MONTAGE}"', "--set", "optimizer.lr=0.003",
    "--set", "schedule.warmup_steps=20",
)


def expand(template: tuple[str, ...]) -> list[str]:
    """`template` as an argv, with SET in place of "$SET"."""
    return [word for arg in template for word in (SET if arg == "$SET" else (arg,))]


def value(argv: list[str], flag: str) -> str:
    """The value that follows `flag` in `argv`."""
    return argv[argv.index(flag) + 1]


def replace(argv: list[str], flag: str, new: str) -> list[str]:
    """A copy of `argv` with `new` as the value that follows `flag`."""
    i = argv.index(flag) + 1
    return [*argv[:i], new, *argv[i + 1:]]


def quick_start() -> list[list[str]]:
    """The six commands, with run directories run-vq, run-cpt and run-sft."""
    return [expand(template) for template in COMMANDS]


def training() -> list[list[str]]:
    """The vq, cpt and sft commands, in that order."""
    return [argv for argv in quick_start() if "train" in argv]


def last_checkpoint(stage: str) -> str:
    """The path of the last epoch checkpoint the quick start's `stage` writes."""
    (argv,) = (a for a in training() if value(a, "--stage") == stage)
    return f"{value(argv, '--out')}/checkpoints/epoch_{int(value(argv, '--epochs')) - 1:04d}"
