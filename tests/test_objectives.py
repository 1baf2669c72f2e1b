"""Branch conventions, continuity, frozen minima, and gradients of the objectives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from angular_optim.objectives import (
    F2_BRANCH_GAP,
    f1,
    f1_deriv,
    f2,
    f2_deriv,
    f3,
    f3_deriv,
    get_objective,
    quadratic,
    rosenbrock,
)


class TestF1:
    def test_global_minimum(self):
        assert f1(-0.3) == 0.0
        assert f1_deriv(-0.3) == 0.0

    def test_local_minimum(self):
        assert f1(0.2) == 0.05
        assert f1_deriv(0.2) == 0.0

    def test_continuous_at_zero(self):
        left = f1(0.0)
        right = (0.0 - 0.2) ** 2 + 0.05
        assert abs(left - right) <= 2e-16

    def test_boundary_takes_left_branch(self):
        # derivative at 0 comes from the x <= 0 branch: 2(0 + 0.3)
        assert f1_deriv(0.0) == 0.6

    def test_sample_values(self):
        assert f1(-1.0) == pytest.approx(0.49, abs=1e-15)
        assert f1(1.0) == pytest.approx(0.69, abs=1e-15)


class TestF2:
    def test_left_branch_is_linear(self):
        assert f2(-1.0) == pytest.approx(4.85, abs=1e-12)
        assert f2_deriv(-1.5) == -40.0

    def test_boundary_takes_left_branch(self):
        assert f2(-0.9) == pytest.approx(0.85, abs=1e-12)
        assert f2_deriv(-0.9) == -40.0

    def test_branch_gap_frozen(self):
        right = (-0.9) ** 3 + (-0.9) * math.sin(8.0 * -0.9) + 0.85
        assert f2(-0.9) - right == F2_BRANCH_GAP

    def test_local_minimum_at_origin(self):
        assert f2(0.0) == 0.85
        assert f2_deriv(0.0) == 0.0

    def test_frozen_minima(self):
        obj = get_objective("f2")
        for (loc,), val in obj.known_minima:
            assert abs(obj.value_and_grad(np.array([loc]))[0] - val) <= 1e-12
            assert abs(f2_deriv(loc)) < 1e-10

    def test_global_minimum_is_global_on_grid(self):
        xs = np.linspace(-0.89, 1.5, 20_001)
        best = min(f2(float(x)) for x in xs)
        assert best >= 0.00011977146994468502 - 1e-7


class TestF3:
    @pytest.mark.parametrize("b", [-0.5, -0.4, 0.0, 0.4, 0.5])
    def test_continuous_at_boundaries(self, b):
        eps = 1e-12
        assert abs(f3(b) - f3(b + eps)) < 1e-11
        assert abs(f3(b) - f3(b - eps)) < 1e-11

    def test_global_minimum(self):
        assert f3(0.0) == 0.0

    @pytest.mark.parametrize(
        "x,expected",
        [(-1.0, 1.0), (-0.45, 0.3), (-0.2, 0.175), (0.2, 0.175), (0.45, 0.3), (1.0, 1.0)],
    )
    def test_branch_values(self, x, expected):
        assert f3(x) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "x,expected",
        [(-1.0, -2.0), (-0.45, 1.0), (-0.2, -0.875), (0.2, 0.875), (0.45, -1.0), (1.0, 2.0)],
    )
    def test_branch_derivatives(self, x, expected):
        assert f3_deriv(x) == expected

    def test_symmetry(self):
        for x in (0.1, 0.3, 0.45, 0.7, 1.3):
            assert f3(x) == pytest.approx(f3(-x), abs=1e-15)


class TestRosenbrock:
    def test_minimum_at_ones(self):
        for dim in (2, 5, 10):
            f, g = rosenbrock(np.ones(dim))
            assert f == 0.0
            assert np.array_equal(g, np.zeros(dim))

    def test_hand_value_and_grad(self):
        # at (-2, 2): 100 (2 - 4)^2 + (1 + 2)^2 = 409
        f, g = rosenbrock(np.array([-2.0, 2.0]))
        assert f == 409.0
        # grad[0] = -4 * 100 * (-2) * (-2) - 2 * 3 = -1606, grad[1] = 200 * (-2)
        assert np.array_equal(g, [-1606.0, -400.0])

    def test_origin(self):
        f, g = rosenbrock(np.zeros(2))
        assert f == 1.0
        assert np.array_equal(g, [-2.0, 0.0])

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            rosenbrock(np.array([1.0]))


class TestQuadratic:
    def test_origin_is_minimum(self):
        f, g = quadratic(np.zeros(3))
        assert f == 0.0
        assert np.array_equal(g, np.zeros(3))

    def test_hand_value(self):
        f, g = quadratic(np.array([3.0, 4.0]))
        assert f == 25.0
        assert np.array_equal(g, [6.0, 8.0])


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_objective("f9")

    def test_scalar_rejects_dim(self):
        with pytest.raises(ValueError):
            get_objective("f1", dim=2)

    def test_rosenbrock_default_dim(self):
        assert get_objective("rosenbrock").dim == 2
        assert get_objective("rosenbrock", dim=5).dim == 5

    @pytest.mark.parametrize("name, dim, message", [
        ("rosenbrock", 1, "rosenbrock needs dim >= 2"),
        ("quadratic", 0, "quadratic needs dim >= 1"),
        ("quadratic", -1, "quadratic needs dim >= 1"),
    ], ids=["rosenbrock-1", "quadratic-0", "quadratic-negative"])
    def test_dim_too_small(self, name, dim, message):
        with pytest.raises(ValueError, match=message):
            get_objective(name, dim=dim)

    def test_quadratic_default(self):
        obj = get_objective("quadratic")
        assert obj.dim == 10
        assert obj.value_and_grad(np.zeros(10))[0] == 0.0

    def test_eval_dim_checked(self):
        with pytest.raises(ValueError):
            get_objective("f1").value_and_grad(np.zeros(2))

    def test_frozen_minima_all(self):
        for name in ("f1", "f2", "f3"):
            obj = get_objective(name)
            for loc, val in obj.known_minima:
                assert abs(obj.value_and_grad(np.array(loc))[0] - val) <= 1e-12

    def test_domains_cover_minima(self):
        for name in ("f1", "f2", "f3"):
            obj = get_objective(name)
            (lo, hi) = obj.domain[0]
            for (loc,), _ in obj.known_minima:
                assert lo < loc < hi or loc == 0.0


# ---------------------------------------------------------------------------
# Frozen oracles: the Rosenbrock and quadratic evaluations and gradients as
# they stood as separate functions.  Each objective's value and gradient must
# keep their bits.


def frozen_rosenbrock(x, a=1.0, b=100.0):
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(b * (tail - head**2) ** 2 + (a - head) ** 2, axis=-1)


def frozen_rosenbrock_grad(x, a=1.0, b=100.0):
    head = x[..., :-1]
    valley = x[..., 1:] - head**2
    g = np.zeros(x.shape)
    g[..., :-1] += -4.0 * b * head * valley - 2.0 * (a - head)
    g[..., 1:] += 2.0 * b * valley
    return g


def frozen_quadratic(x, center):
    d = x - center
    return np.vecdot(d, d)


def frozen_quadratic_grad(x, center):
    return 2.0 * (x - center)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# moderate values, values whose squares overflow, and non-finite ones
ENTRIES = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e300, 1e300),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


def stacks(dims, elements=ENTRIES):
    """Arrays of up to two leading axes (none: a lone vector) over a last axis
    of a width drawn from ``dims``."""
    shapes = st.tuples(st.lists(st.integers(1, 4), max_size=2), dims)
    return shapes.flatmap(lambda s: hnp.arrays(np.float64, (*s[0], s[1]), elements=elements))


class TestValueAndGrad:
    """Each objective's value and gradient at a vector or a stack are the
    frozen ones, bit for bit, overflow and NaN included."""

    @settings(max_examples=200, deadline=None)
    @given(x=stacks(st.integers(2, 6)))
    def test_rosenbrock_matches_frozen(self, x):
        with np.errstate(all="ignore"):
            f, g = get_objective("rosenbrock", dim=x.shape[-1]).value_and_grad(x)
            assert same_bits(f, frozen_rosenbrock(x))
            assert same_bits(g, frozen_rosenbrock_grad(x))

    @settings(max_examples=200, deadline=None)
    @given(x=stacks(st.integers(1, 6)))
    def test_quadratic_matches_frozen(self, x):
        center = np.zeros(x.shape[-1])  # the center every route gave it
        with np.errstate(all="ignore"):
            f, g = get_objective("quadratic", dim=x.shape[-1]).value_and_grad(x)
            assert same_bits(f, frozen_quadratic(x, center))
            assert same_bits(g, frozen_quadratic_grad(x, center))

    @pytest.mark.parametrize("name, fn, deriv", [
        ("f1", f1, f1_deriv), ("f2", f2, f2_deriv), ("f3", f3, f3_deriv),
    ])
    @settings(max_examples=100, deadline=None)
    @given(x=stacks(st.just(1), st.one_of(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300),
                                         st.just(math.nan))))
    def test_scalar_objectives_match_their_functions(self, name, fn, deriv, x):
        def each(fn, values):  # Python's ** raises on overflow, which reads as inf
            out = []
            for v in values.ravel().tolist():
                try:
                    out.append(fn(v))
                except OverflowError:
                    out.append(math.inf)
            return np.array(out).reshape(values.shape)

        f, g = get_objective(name).value_and_grad(x)
        assert same_bits(f, each(fn, x[..., 0]))
        assert same_bits(g, each(deriv, x))

    def test_an_overflowing_value_keeps_its_finite_gradient(self):
        # f1(1e200) overflows, f1'(1e200) = 2e200 does not
        f, g = get_objective("f1").value_and_grad(np.array([[1e200], [0.0]]))
        assert np.array_equal(f, [math.inf, 0.09])
        assert np.array_equal(g, [[2e200], [0.6]])
