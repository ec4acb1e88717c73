"""What a result was measured on: code revision, interpreter, BLAS, cores."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np

import mmfnd


def describe(root: Path, src: Path) -> dict:
    package = Path(mmfnd.__file__).resolve().parent
    if src.resolve() not in package.parents:
        raise RuntimeError(f"mmfnd was imported from {package}, not from {src}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
