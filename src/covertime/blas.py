"""numpy's bundled OpenBLAS through ctypes: one BLAS thread for the calls
whose rounding depends on the thread count, and LAPACK's Cholesky inverse.

OpenBLAS splits a Cholesky factorization, its inverse or a long matrix-vector
product differently at one thread and at several, and the last bits of the
result follow the split. ``single_thread()`` pins the OpenBLAS copies that
numpy and scipy bundle to one thread for the length of a block and restores
their previous counts afterwards, through the thread setters those copies
export, so reported numbers do not depend on ``OPENBLAS_NUM_THREADS``.
``threads_pinned()`` tells whether both setters resolved; where they do not
(another BLAS build), the block runs at whatever count the library uses.
Loading a bundled library does not import its package.

``cholesky_inverse()`` calls LAPACK ``potrf`` and ``potri`` through the
LAPACKE entry points of numpy's OpenBLAS (64-bit integers, column-major, in
place), so the resistance oracle needs no scipy. Where those symbols do
not resolve it falls back to ``scipy.linalg.lapack``, which it imports then.
``describe()`` names the library that serves it and numpy's OpenBLAS build.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os

import numpy as np

_PACKAGES = ("numpy", "scipy")
# (setter, getter) pairs exported by the scipy-openblas builds that the
# numpy (64-bit integers) and scipy wheels bundle
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)
# potrf and potri in numpy's build: lapack_int LAPACKE_dpo*(int layout,
# char uplo, lapack_int n, double *a, lapack_int lda), lapack_int = int64
_LAPACKE = ("scipy_LAPACKE_dpotrf64_", "scipy_LAPACKE_dpotri64_")
_CONFIG = "scipy_openblas_get_config64_"
_COL_MAJOR = 102


@functools.cache
def _libraries() -> dict:
    """package -> the OpenBLAS library in the package's ``<package>.libs``
    directory, for each package where one loads. Loading a library that the
    package already loaded returns the same instance."""
    found = {}
    for package in _PACKAGES:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), package + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            try:
                found[package] = ctypes.CDLL(path)
            except OSError:
                continue
            break
    return found


@functools.cache
def _controls() -> dict:
    """package -> (get, set) thread functions of its bundled OpenBLAS, for
    each package where both resolve."""
    found = {}
    for package, lib in _libraries().items():
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found[package] = (getter, setter)
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


@functools.cache
def _lapack():
    """(name of the library serving potrf/potri, in-place inverse function):
    numpy's OpenBLAS where its LAPACKE symbols resolve, else scipy's LAPACK
    wrappers."""
    lib = _libraries().get("numpy")
    entries = [getattr(lib, name, None) for name in _LAPACKE] if lib is not None else [None]
    if all(entry is not None for entry in entries):
        for entry in entries:
            entry.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64,
                              ctypes.c_void_p, ctypes.c_int64]
            entry.restype = ctypes.c_int64
        potrf, potri = entries

        def invert(a: np.ndarray) -> int:
            n = a.shape[0]
            info = potrf(_COL_MAJOR, b"L", n, a.ctypes.data, max(n, 1))
            if info == 0:
                info = potri(_COL_MAJOR, b"L", n, a.ctypes.data, max(n, 1))
            return int(info)

        return os.path.basename(lib._name), invert

    from scipy.linalg import lapack

    def invert(a: np.ndarray) -> int:
        c, info = lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            c, info = lapack.dpotri(c, lower=1, overwrite_c=1)
        if c is not a:
            a[...] = c
        return int(info)

    return "scipy.linalg.lapack", invert


def cholesky_inverse(a: np.ndarray) -> int:
    """Overwrite the lower triangle of the symmetric positive definite
    matrix a with that of its inverse (LAPACK ``potrf``, then ``potri`` on
    the factor) and return LAPACK's info, 0 on success. The strict upper
    triangle is left as it was. a must be a square, Fortran-ordered,
    writeable float64 array."""
    if (a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]
            or not a.flags.f_contiguous or not a.flags.writeable):
        raise ValueError("cholesky_inverse needs a square, F-ordered, writeable float64 array")
    return _lapack()[1](a)


def describe() -> str:
    """Which library serves ``cholesky_inverse``, numpy's OpenBLAS build and
    whether the thread pin resolved, on one line."""
    lib = _libraries().get("numpy")
    config = getattr(lib, _CONFIG, None) if lib is not None else None
    if config is not None:
        config.argtypes, config.restype = [], ctypes.c_char_p
        build = config().decode()
    else:
        build = "not found"
    return (f"LAPACK potrf/potri: {_lapack()[0]}; numpy OpenBLAS: {build}; "
            f"threads pinned: {threads_pinned()}")
