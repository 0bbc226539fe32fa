"""Environment record attached to every result."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform

# Set before numpy is imported so that every BLAS call runs on one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def _openblas_threads(package) -> dict:
    """Thread count reported by each OpenBLAS library bundled with a package."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    out = {}
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def blas_info() -> dict:
    import numpy
    import scipy

    info = {}
    for package in (numpy, scipy):
        try:
            blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
            name = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, ValueError):
            name = None
        info[package.__name__] = {"library": name, "threads": _openblas_threads(package)}
    return info


def git_commit(root: str) -> str | None:
    """Commit of a git checkout, read from .git without running git; None
    outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over the package sources, identifying the code measured even
    where there is no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "covertime")
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def record(root: str, workload: str, seed: int, inputs: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "inputs": inputs,
    }
