"""Flat float64 vector utilities, seeded randomness, and a gradient oracle.

Everything in this package works on flat 1-D float64 arrays ("parameter
vectors").  32-bit floats are deliberately unsupported: the toy protocols
measure behavior close to minima where float32 rounding would dominate.

The random generator is PCG64 (numpy's default bit generator), wrapped by
``make_rng`` so every call site names its seed explicitly.  The algorithm
choice is frozen: recorded artifacts depend on the exact stream.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Vector = np.ndarray


def as_vector(values) -> Vector:
    """Copy ``values`` into a fresh 1-D float64 array."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; equal seeds give equal streams everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def mean(a: Vector) -> float | np.ndarray:
    """Arithmetic mean of a non-empty vector, or per row of a stack as an
    (R, 1) column (bitwise the mean of each row alone)."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        raise ValueError("mean of empty vector")
    return float(np.mean(a)) if a.ndim == 1 else np.mean(a, axis=-1, keepdims=True)


def finite_diff_grad(
    f: Callable[[Vector], float], x: Vector, h: float = 1e-6
) -> Vector:
    """Central-difference gradient (f(x+h*e_i) - f(x-h*e_i)) / (2h).

    The default h = 1e-6 balances truncation against rounding for function
    values of order 1.  Raises if any probe evaluates non-finite.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation near coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def first_nonfinite(a: Vector) -> int | None:
    """Index of the first non-finite element, or None if all finite."""
    bad = ~np.isfinite(np.asarray(a))
    if not bad.any():
        return None
    return int(np.argmax(bad))


def relative_error(a: Vector, b: Vector) -> float:
    """Worst per-coordinate |a-b| / max(|a|, |b|, 1).

    The floor of 1 keeps near-zero coordinates from blowing up the ratio;
    gradient checks in this repo quote this measure.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))
