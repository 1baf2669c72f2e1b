"""Analytic test objectives: three 1-D piecewise functions, Rosenbrock, quadratic.

Each objective carries one function that gives its value and analytic
gradient together, a documented per-coordinate domain, known minima, and the
list of non-smooth boundary points.  The function works over the last axis,
so one call takes a parameter vector or an (R, D) stack of them.  Branch
conditions are applied exactly as written in the piecewise definitions below
("x <= 0" takes the left branch at 0), and at a boundary the gradient of the
branch selected by that convention is returned.

Continuity at the branch boundaries was checked numerically:

* f1 is continuous at 0 (both branches give 0.09 up to one ulp).
* f2 is NOT continuous at -0.9: the left branch gives 0.85, the right branch
  0.8353010774642377.  The measured jump is recorded as ``F2_BRANCH_GAP``.
* f3 is continuous at all five boundaries (-0.5, -0.4, 0, 0.4, 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from angular_optim.numerics import Vector, as_vector

# Measured at x = -0.9: left branch 0.85 minus right branch
# (-0.9)^3 + (-0.9) sin(-7.2) + 0.85 = 0.8353010774642377.
F2_BRANCH_GAP = 0.01469892253576377


@dataclass(frozen=True)
class Objective:
    """A differentiable-almost-everywhere test problem.

    ``known_minima`` holds (location, value) pairs with values frozen from
    direct float64 evaluation, so the value at each location is within 1e-12
    of its frozen one.  ``value_and_grad`` maps a vector, or a stack of them
    over any leading axes, to (f, g): f has the leading shape, g the input's.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain: tuple[tuple[float, float], ...]
    known_minima: tuple[tuple[tuple[float, ...], float], ...] = ()
    nonsmooth_points: tuple[float, ...] = ()

    def value_and_grad(self, x: Vector) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (self.dim,):
            got = x.shape[-1] if x.ndim else "a scalar"
            raise ValueError(f"{self.name} expects dim {self.dim}, got {got}")
        return self.fn(x)


# ---------------------------------------------------------------------------
# 1-D piecewise functions


def f1(x: float) -> float:
    """(x+0.3)^2 for x <= 0, else (x-0.2)^2 + 0.05.

    Global minimum 0 at x = -0.3, local minimum 0.05 at x = 0.2.
    """
    if x <= 0.0:
        return (x + 0.3) ** 2
    return (x - 0.2) ** 2 + 0.05


def f1_deriv(x: float) -> float:
    if x <= 0.0:
        return 2.0 * (x + 0.3)
    return 2.0 * (x - 0.2)


def f2(x: float) -> float:
    """-40x - 35.15 for x <= -0.9, else x^3 + x sin(8x) + 0.85.

    The two branches do not meet at -0.9; see F2_BRANCH_GAP.
    """
    if x <= -0.9:
        return -40.0 * x - 35.15
    return x**3 + x * math.sin(8.0 * x) + 0.85


def f2_deriv(x: float) -> float:
    if x <= -0.9:
        return -40.0
    return 3.0 * x**2 + math.sin(8.0 * x) + 8.0 * x * math.cos(8.0 * x)


def f3(x: float) -> float:
    """Six-branch piecewise-smooth valley, continuous, global minimum 0 at 0."""
    if x <= -0.5:
        return x * x
    if x <= -0.4:
        return 0.75 + x
    if x <= 0.0:
        return -7.0 * x / 8.0
    if x <= 0.4:
        return 7.0 * x / 8.0
    if x <= 0.5:
        return 0.75 - x
    return x * x


def f3_deriv(x: float) -> float:
    if x <= -0.5:
        return 2.0 * x
    if x <= -0.4:
        return 1.0
    if x <= 0.0:
        return -7.0 / 8.0
    if x <= 0.4:
        return 7.0 / 8.0
    if x <= 0.5:
        return -1.0
    return 2.0 * x


# ---------------------------------------------------------------------------
# N-dimensional objectives


def rosenbrock(x: Vector) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) of f = sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2 over i = 0 .. N-2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("rosenbrock needs dim >= 2")
    head = x[..., :-1]
    valley = x[..., 1:] - head**2
    rest = 1.0 - head
    f = np.add.reduce(100.0 * valley**2 + rest**2, axis=-1)
    g = np.zeros(x.shape)  # each term adds into its slice: 0.0 + -0.0 is 0.0
    lo, hi = g[..., :-1], g[..., 1:]
    # d/dx_i of the i-th term: -400 x_i (x_{i+1} - x_i^2) - 2 (1 - x_i)
    np.add(lo, -400.0 * head * valley - 2.0 * rest, out=lo)
    # d/dx_{i+1} of the i-th term: 200 (x_{i+1} - x_i^2)
    np.add(hi, 200.0 * valley, out=hi)
    return f, g


def quadratic(x: Vector, center: Vector) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) of the squared distance f = ||x - center||^2 (per row: vecdot
    matches a lone np.dot)."""
    x = np.asarray(x, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if x.shape[-1:] != center.shape:
        raise ValueError("dim mismatch between x and center")
    d = x - center
    return np.vecdot(d, d), 2.0 * d


# ---------------------------------------------------------------------------
# Registry

def _per_row(fn, x: np.ndarray) -> np.ndarray:
    """fn of the one coordinate of each row, in Python floats: numpy's x**3
    differs from Python's in the last ulp.  Python's ``**`` raises on
    overflow, which reads as inf (f1, f2 and f2_deriv overflow only upward)."""
    out = []
    for v in x[..., 0].ravel().tolist():
        try:
            out.append(fn(v))
        except OverflowError:
            out.append(math.inf)
    return np.array(out).reshape(x.shape[:-1])


def _scalar_objective(name, fn, deriv, domain, minima, nonsmooth) -> Objective:
    return Objective(
        name=name,
        dim=1,
        # two passes, not one fused one: a value that overflows keeps its
        # finite derivative (f1(1e200) is inf, f1'(1e200) is 2e200)
        fn=lambda x: (_per_row(fn, x), _per_row(deriv, x)[..., None]),
        domain=(domain,),
        known_minima=minima,
        nonsmooth_points=nonsmooth,
    )


# (function, derivative, domain, known minima, non-smooth points).  The f2
# minima were located by bracketing the derivative's sign changes and frozen
# from direct float64 evaluation of the right branch.
_SCALAR_OBJECTIVES = {
    "f1": (f1, f1_deriv, (-2.0, 2.0), (((-0.3,), 0.0), ((0.2,), 0.05)), (0.0,)),
    "f2": (
        f2, f2_deriv, (-2.0, 1.5),
        (
            ((-0.6429185989152617,), 0.00011977146994468502),
            ((0.0,), 0.85),
            ((0.5880534760792461,), 0.4653181034574271),
        ),
        (-0.9,),
    ),
    "f3": (f3, f3_deriv, (-2.0, 2.0), (((0.0,), 0.0),), (-0.5, -0.4, 0.0, 0.4, 0.5)),
}


def rosenbrock_objective(dim: int = 2) -> Objective:
    if dim < 2:
        raise ValueError("rosenbrock needs dim >= 2")
    return Objective(
        name=f"rosenbrock{dim}" if dim != 2 else "rosenbrock",
        dim=dim,
        fn=rosenbrock,
        domain=tuple((-2.048, 2.048) for _ in range(dim)),
        known_minima=(((1.0,) * dim, 0.0),),
        nonsmooth_points=(),
    )


def quadratic_objective(center: Vector) -> Objective:
    center = as_vector(center)
    return Objective(
        name="quadratic",
        dim=center.size,
        fn=lambda x: quadratic(x, center),
        domain=tuple((-5.0, 5.0) for _ in range(center.size)),
        known_minima=((tuple(center.tolist()), 0.0),),
        nonsmooth_points=(),
    )


def get_objective(name: str, dim: int | None = None) -> Objective:
    """Look up an objective by name.

    ``dim`` applies to "rosenbrock" (default 2) and "quadratic" (default 10,
    centered at the origin); the 1-D functions reject any other dim.
    """
    if name == "rosenbrock":
        return rosenbrock_objective(2 if dim is None else dim)
    if name == "quadratic":
        return quadratic_objective(np.zeros(10 if dim is None else dim))
    if not isinstance(name, str) or name not in _SCALAR_OBJECTIVES:
        raise KeyError(f"unknown objective {name!r}")
    if dim is not None and dim != 1:
        raise ValueError(f"{name} is 1-D")
    return _scalar_objective(name, *_SCALAR_OBJECTIVES[name])
