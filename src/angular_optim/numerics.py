"""Float64 vector utilities, seeded randomness, and a gradient oracle.

A run's parameters are a flat float64 vector (a "parameter vector"), and R
runs stepped together are an (R, D) stack of them.  32-bit floats are
deliberately unsupported: the toy protocols measure behavior close to minima
where float32 rounding would dominate.

The random generator is PCG64 (numpy's default bit generator), wrapped by
``make_rng`` so every call site names its seed explicitly.  The algorithm
choice is frozen: recorded artifacts depend on the exact stream.  A generator
is built only where a draw is made: the first one imports numpy.random (and
with it secrets and hashlib, about 6 MB resident), which a run from an
explicit start never needs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable

import numpy as np

Vector = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; equal seeds give equal streams everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def mean_std(values) -> tuple[float, float]:
    """Mean and sample (n-1) std of per-seed values; one seed's std is 0.0 if
    its value is finite and NaN if not.  A diverged run's inf, huge or NaN
    value gives inf or NaN, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        if len(values) > 1:
            return mean, float(np.std(values, ddof=1))
    return mean, 0.0 if math.isfinite(mean) else math.nan


@contextmanager
def sized_by(key: str, value):
    """Name ``key`` in numpy's error for an array, sized by ``value``, whose
    byte count its shape arithmetic cannot hold (one too large to allocate
    is a MemoryError, which passes as it stands).  Wrap only the allocation
    that ``key`` alone can make too large."""
    try:
        yield
    except ValueError as err:
        if not str(err).startswith("array is too big"):
            raise
        raise ValueError(f"{key} {value} is too large: {err}") from None


def finite_diff_grad(
    f: Callable[[Vector], np.ndarray], x: Vector, h: float = 1e-6
) -> Vector:
    """Central-difference gradient (f(x+h*e_i) - f(x-h*e_i)) / (2h) over the
    last axis: of a vector, or row by row of an (R, D) stack for an ``f`` that
    gives one value per row.  The default h = 1e-6 balances truncation against
    rounding for values of order 1.  Raises if any probe evaluates non-finite.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.shape[-1]):
        xp, xm = x.copy(), x.copy()
        xp[..., i] += h
        xm[..., i] -= h
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise ValueError(f"non-finite evaluation near coordinate {i}")
        grad[..., i] = (fp - fm) / (2.0 * h)
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
