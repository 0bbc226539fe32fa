"""One BLAS thread for the calls whose rounding depends on the thread count.

OpenBLAS splits a Cholesky factorization, its inverse or a long matrix-vector
product differently at one thread and at several, and the last bits of the
result follow the split. ``single_thread()`` pins the OpenBLAS copies that
numpy and scipy bundle to one thread for the length of a block and restores
their previous counts afterwards, through the thread setters those copies
export, so reported numbers do not depend on ``OPENBLAS_NUM_THREADS``.
``threads_pinned()`` tells whether both setters resolved; where they do not
(another BLAS build), the block runs at whatever count the library uses.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os

_PACKAGES = ("numpy", "scipy")
# (setter, getter) pairs exported by the scipy-openblas builds that the
# numpy (64-bit integers) and scipy wheels bundle
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _controls() -> dict:
    """package -> (get, set) thread functions of the OpenBLAS library in the
    package's ``<package>.libs`` directory, for each package where one
    resolves. Loading a library that the package already loaded returns the
    same instance."""
    found = {}
    for package in _PACKAGES:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), package + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_name, get_name in _SYMBOLS:
                setter = getattr(lib, set_name, None)
                getter = getattr(lib, get_name, None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found[package] = (getter, setter)
                    break
            if package in found:
                break
    return found


def threads_pinned() -> bool:
    """Whether ``single_thread()`` pins both numpy's and scipy's BLAS."""
    return set(_controls()) == set(_PACKAGES)


@contextlib.contextmanager
def single_thread():
    """Run the block with every resolved OpenBLAS library at one thread."""
    controls = list(_controls().values())
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)
