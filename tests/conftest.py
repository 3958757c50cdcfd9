"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eeglm import autodiff as ad

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def float64(monkeypatch):
    """Tensors in float64 for one test (`autodiff.DTYPE`): for the
    finite-difference gradchecks, which float32 cannot resolve, and for
    checks of closed-form identities at float64 tolerances."""
    monkeypatch.setattr(ad, "DTYPE", np.float64)


@pytest.fixture(scope="session")
def quick_start(tmp_path_factory) -> SimpleNamespace:
    """`scripts/quickstart_digest.py OUT`, run once for the session in a
    subprocess at the host's BLAS thread count, which `cli.main` pins to
    one: the README quick start and the other subcommands in the empty
    directory OUT, then each training run stopped and resumed in place to
    the bytes it held. Holds `out`, the finished process `proc` (its stdout
    is the listing) and its wall time `seconds`."""
    out = tmp_path_factory.mktemp("quick-start")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "quickstart_digest.py"), str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    return SimpleNamespace(out=out, proc=proc, seconds=time.perf_counter() - t0)
