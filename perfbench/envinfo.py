"""The environment record written into every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports, keyed by file name."""
    found: dict[str, int] = {}
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def _git_rev(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """Short SHA-256 over the package's Python sources."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def record(root: Path, workload: str, seed: int, trace: bool) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_rev": _git_rev(root),
        "src_digest": source_digest(root / "src" / "eeglm"),
    }
