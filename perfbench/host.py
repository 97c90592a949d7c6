"""The host record printed with every result.

The benchmark reads the BLAS thread count and the CPU affinity and
never sets either: BLAS oversubscription and GIL hand-off are defects
the program has today, and a later change must be able to show their
fixes as gains on this benchmark.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np

#: Environment variables that would change BLAS threading (recorded).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: ``(package, getter symbol)`` of the OpenBLAS builds numpy and scipy
#: bundle; tile kernels use numpy's for gemm/syrk, scipy's for
#: potrf/trsm.
_OPENBLAS = (
    ("numpy", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy_openblas_get_num_threads"),
)


def blas_threads() -> dict:
    """Effective OpenBLAS thread count per bundled library (read only)."""

    out = {}
    for package, symbol in _OPENBLAS:
        try:
            module = __import__(package)
        except ImportError:
            continue
        libdir = Path(module.__file__).parent.parent / f"{package}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                getter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            out[package] = int(getter())
            break
    return out


def _blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""

    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record(root: Path) -> dict:
    import scipy

    threads = blas_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": _blas_library(),
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
    }
