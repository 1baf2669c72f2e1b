"""Vector utilities, rng determinism, and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angular_optim.harness import _csv
from angular_optim.numerics import (
    as_vector,
    finite_diff_grad,
    first_nonfinite,
    make_rng,
    mean,
    relative_error,
)
from angular_optim.objectives import get_objective, rosenbrock


class TestMean:
    def test_symmetric(self):
        assert mean(np.array([1.0, 2.0, 3.0])) == 2.0

    def test_singleton(self):
        assert mean(np.array([5.0])) == 5.0

    def test_antisymmetric(self):
        assert mean(np.array([-1.0, 1.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean(np.array([]))


class TestFiniteDiff:
    def test_quadratic_slope(self):
        # f(x) = x^2 at x = 3: central difference is exact for quadratics
        # up to rounding, derivative 6.
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant_is_zero(self):
        g = finite_diff_grad(lambda x: 7.25, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(g, np.zeros(3))

    def test_rosenbrock_at_origin(self):
        # hand gradient at (0,0), a=1, b=100: (-2(1-0), 0) = (-2, 0)
        g = finite_diff_grad(lambda x: rosenbrock(x), np.array([0.0, 0.0]), h=1e-6)
        assert abs(g[0] - (-2.0)) < 1e-4 and abs(g[1]) < 1e-4

    def test_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.array([0.0]), h=0.0)

    def test_nonfinite_eval_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: float("inf"), np.array([0.0]))


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(1234).uniform(size=10_000)
        b = make_rng(1234).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(0).uniform(size=8), make_rng(1).uniform(size=8))


class TestAnalyticVsFiniteDiff:
    """Every objective's analytic gradient against the oracle, away from
    non-smooth boundaries (margin 1e-3), at 100 random domain points."""

    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    def test_scalar_objectives(self, name):
        objective = get_objective(name)
        rng = make_rng(7)
        (lo, hi) = objective.domain[0]
        checked = 0
        while checked < 100:
            x = rng.uniform(lo, hi)
            if any(abs(x - p) <= 1e-3 for p in objective.nonsmooth_points):
                continue
            analytic = objective.grad(np.array([x]))
            fd = finite_diff_grad(objective.eval, np.array([x]))
            assert relative_error(analytic, fd) <= 1e-5
            checked += 1

    @pytest.mark.parametrize("dim", [2, 5, 10])
    def test_rosenbrock(self, dim):
        objective = get_objective("rosenbrock", dim=dim)
        rng = make_rng(11)
        for _ in range(100):
            x = rng.uniform(-2.048, 2.048, size=dim)
            assert relative_error(objective.grad(x), finite_diff_grad(objective.eval, x)) <= 1e-5

    def test_quadratic(self):
        objective = get_objective("quadratic", dim=10)
        rng = make_rng(13)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=10)
            assert relative_error(objective.grad(x), finite_diff_grad(objective.eval, x)) <= 1e-5


class TestFormatting:
    @pytest.mark.parametrize("x", [0.1, -0.0, 1e-308, 3.141592653589793, 332946.9625815])
    def test_round_trip(self, x):
        cell = _csv(["t", "x"], [1], [x]).splitlines()[1].split(",")[1]
        assert float(cell).hex() == x.hex()

    def test_first_nonfinite(self):
        assert first_nonfinite(np.array([1.0, 2.0])) is None
        assert first_nonfinite(np.array([1.0, np.inf, np.nan])) == 1

    def test_as_vector_copies(self):
        src = np.array([1.0, 2.0])
        out = as_vector(src)
        out[0] = 9.0
        assert src[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16))
def test_relative_error_zero_for_identical(values):
    a = np.array(values)
    assert relative_error(a, a.copy()) == 0.0
