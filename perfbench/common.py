"""Checkout location, thread pinning and environment record.

This module must not import numpy or scipy: the BLAS thread variables
only take effect when they are set before those libraries load.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no mrilqr source tree."""


def pin_threads() -> None:
    """Run every BLAS/OpenMP pool on one thread (the machine has two CPUs)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import mrilqr from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mrilqr" / "__init__.py").is_file():
        raise CheckoutError(f"no mrilqr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mrilqr

    if Path(mrilqr.__file__).resolve().parent != (SRC / "mrilqr").resolve():
        raise CheckoutError(f"mrilqr imported from {mrilqr.__file__}, not from {SRC}")


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    try:
        return (git / head[len("ref: "):]).read_text().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    """Versions, thread pins and machine facts stored with every result."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": _git_commit(),
    }
