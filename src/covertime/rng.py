"""Counter-based randomness for reproducible parallel Monte Carlo.

Every simulated trial consumes the value stream ``value(key, t)`` for
t = 0, 1, 2, ..., where ``key`` is a pure function of the master seed and
the trial index. The stream at step t never depends on how many workers
run, how trials are batched, or which engine (scalar or vectorized)
executes the walk, so estimates are bit-reproducible by construction.
Both engines draw the values from one function, ``stream_block``: the
vectorized one a block of steps of many streams, the scalar one a chunk of
steps of one stream.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(GOLDEN)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_UM1 = np.uint64(_M1)
_UM2 = np.uint64(_M2)


def mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on the uint64 array z
    (wrapping); scratch is a work array of z's shape. Returns z."""
    np.right_shift(z, _U30, out=scratch)
    z ^= scratch
    z *= _UM1
    np.right_shift(z, _U27, out=scratch)
    z ^= scratch
    z *= _UM2
    np.right_shift(z, _U31, out=scratch)
    z ^= scratch
    return z


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of a uint64 array, into a new array."""
    z = np.array(z, dtype=np.uint64)
    return mix64_inplace(z, np.empty_like(z))


def mix64_int(x: int) -> int:
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integers into a single 64-bit seed; order sensitive."""
    acc = GOLDEN
    for p in parts:
        acc = mix64_int((acc ^ (p & _MASK)) * _M2 + GOLDEN & _MASK)
    return acc


def trial_keys(master_seed: int, count: int) -> np.ndarray:
    """Stream keys for trials 0..count-1 of one master seed."""
    base = np.uint64(mix64_int(master_seed))
    idx = np.arange(count, dtype=np.uint64)
    return mix64(base + idx * _U_GOLDEN)


def trial_key(master_seed: int, trial: int) -> int:
    """Stream key of one trial: trial_keys(master_seed, trial + 1)[-1]."""
    return mix64_int(mix64_int(master_seed) + trial * GOLDEN)


def stream_block(keys: np.ndarray, t: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Values of many streams (uint64 keys) at steps t..t+len(out)-1,
    written into the (steps, len(keys)) uint64 array out, whose row s holds
    step t + s; scratch is a work array of its shape. Returns out."""
    np.add(keys, (np.arange(t, t + len(out), dtype=np.uint64) * _U_GOLDEN)[:, None], out=out)
    return mix64_inplace(out, scratch)
