"""Update-rule oracles, angular machinery bounds, wrappers, and the dispatcher."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angular_optim.defaults import default_config
from angular_optim.numerics import first_nonfinite, make_rng
from angular_optim.optimizers import (
    ANGLE_VARIANTS,
    MOMENT_RULES,
    RULES,
    ConfigStack,
    NonFiniteStepError,
    OptimizerConfig,
    OptimizerState,
    Runs,
    _angle,
    angular_coefficient,
    init_state,
    nonfinite_rows,
    radam_terms,
    step,
)

TANH_1 = 0.7615941559557649
PHI_COS_MAX = 0.8807970779778824  # tanh(1) * 0.5 + 0.5, attained at a_min = 0
ARCTAN_HALF = 0.4636476090008061
SIGMOID_1 = 0.7310585786300049


def angle(g_t, g_prev):
    """The kernel's angle between consecutive slopes, perpendicular limit included."""
    with np.errstate(divide="ignore"):
        return _angle(np.abs(g_t - g_prev), g_t, g_prev)


def run_steps(rule, grads, theta0, **cfg):
    config = OptimizerConfig(rule=rule, **cfg)
    params = np.array(theta0, dtype=np.float64)
    state = init_state(config, params.size)
    out = [params]
    for g in grads:
        params = step(state, config, params, np.asarray(g, dtype=np.float64))
        out.append(params)
    return state, out


class TestConfigValidation:
    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            OptimizerConfig(rule="nadam")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.0)

    @pytest.mark.parametrize("kw", [{"beta1": 1.0}, {"beta2": -0.1}, {"momentum_gamma": 1.0}])
    def test_bad_ranges(self, kw):
        with pytest.raises(ValueError):
            OptimizerConfig(**kw)

    def test_moment_contraction_condition(self):
        # beta1^2 / sqrt(beta2) = 0.998 / 0.707 > 1: invalid for moment rules
        with pytest.raises(ValueError):
            OptimizerConfig(rule="adam", beta1=0.999, beta2=0.5)
        # same pair is fine for a non-moment rule
        OptimizerConfig(rule="sgd", beta1=0.999, beta2=0.5)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            OptimizerConfig(rule="angulargrad", angle_variant="sin")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            OptimizerConfig().alpha = 0.5  # type: ignore[misc]

    def test_rule_table_complete(self):
        assert set(RULES) >= set(MOMENT_RULES)
        assert ANGLE_VARIANTS == ("cos", "tan")


class TestAngleBetween:
    def test_equal_gradients_zero_angle(self):
        assert np.array_equal(angle(np.array([0.7]), np.array([0.7])), [0.0])

    def test_first_step_against_zero(self):
        a = angle(np.array([0.5]), np.array([0.0]))
        assert a[0] == pytest.approx(ARCTAN_HALF, abs=1e-15)

    def test_perpendicular_slopes(self):
        # g * g_prev = -1 makes the denominator vanish: right angle
        a = angle(np.array([1.0]), np.array([-1.0]))
        assert a[0] == math.pi / 2.0

    def test_symmetric(self):
        g1 = np.array([0.3, -2.0, 5.0])
        g2 = np.array([-1.1, 0.0, 4.0])
        assert np.array_equal(angle(g1, g2), angle(g2, g1))

    def test_elementwise(self):
        a = angle(np.array([0.5, 1.0]), np.array([0.0, -1.0]))
        assert a[0] == pytest.approx(ARCTAN_HALF, abs=1e-15)
        assert a[1] == math.pi / 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e8, 1e8, allow_nan=False),
        st.floats(-1e8, 1e8, allow_nan=False),
    )
    def test_range(self, g1, g2):
        a = angle(np.array([g1]), np.array([g2]))[0]
        assert 0.0 <= a <= math.pi / 2.0


class TestAngularCoefficient:
    def test_cos_at_zero_is_max(self):
        phi = angular_coefficient(np.array([0.0]), "cos", 0.5, 0.5)
        assert phi[0] == PHI_COS_MAX

    def test_tan_at_zero_is_min(self):
        phi = angular_coefficient(np.array([0.0]), "tan", 0.5, 0.5)
        assert phi[0] == 0.5

    def test_tan_saturates_at_right_angle(self):
        # tan(float pi/2) ~ 1.6e16; tanh collapses it to exactly 1
        phi = angular_coefficient(np.array([math.pi / 2.0]), "tan", 0.5, 0.5)
        assert phi[0] == 1.0

    def test_cos_at_right_angle(self):
        phi = angular_coefficient(np.array([math.pi / 2.0]), "cos", 0.5, 0.5)
        assert phi[0] == pytest.approx(0.5, abs=1e-15)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            angular_coefficient(np.array([0.0]), "sin", 0.5, 0.5)

    def test_lambda_weights(self):
        phi = angular_coefficient(np.array([0.0]), "cos", 0.25, 0.1)
        assert phi[0] == pytest.approx(TANH_1 * 0.25 + 0.1, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, math.pi / 2.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_bounds(self, a, lambda1, lambda2):
        for variant in ANGLE_VARIANTS:
            phi = angular_coefficient(np.array([a]), variant, 0.5, 0.5)[0]
            assert 0.5 <= phi <= 1.0
            if variant == "cos":
                assert phi <= PHI_COS_MAX
            phi = angular_coefficient(np.array([a]), variant, lambda1, lambda2)[0]
            assert lambda2 <= phi <= lambda1 + lambda2

    def test_monotonicity(self):
        grid = np.linspace(0.0, math.pi / 2.0, 4001)
        cos_phi = angular_coefficient(grid, "cos", 0.5, 0.5)
        tan_phi = angular_coefficient(grid, "tan", 0.5, 0.5)
        assert np.all(np.diff(cos_phi) <= 0.0)  # flatter angle -> larger phi
        assert np.all(np.diff(tan_phi) >= 0.0)  # saturation makes this non-strict


class TestFirstSteps:
    """Hand-computed single and double steps for every rule."""

    def test_sgd(self):
        _, traj = run_steps("sgd", [[0.5]], [1.0], alpha=0.1)
        assert traj[1][0] == 0.95

    def test_sgdm_accumulator_form(self):
        # buf = gamma * buf + g with gamma 0.9, g 1: first step 0.1, second 0.19
        _, traj = run_steps("sgdm", [[1.0], [1.0]], [0.0], alpha=0.1, momentum_gamma=0.9)
        assert traj[1][0] == pytest.approx(-0.1, abs=1e-15)
        assert traj[2][0] == pytest.approx(-0.29, abs=1e-15)

    def test_rmsprop(self):
        _, traj = run_steps("rmsprop", [[2.0]], [0.0], alpha=0.1, beta2=0.99)
        assert traj[1][0] == pytest.approx(-0.9999999500000025, abs=1e-14)

    def test_rmsprop_no_bias_correction(self):
        # with bias correction the first step would be ~alpha * g / |g|;
        # without it the denominator is sqrt((1-rho) g^2)
        _, traj = run_steps("rmsprop", [[2.0]], [0.0], alpha=0.1, beta2=0.99)
        assert abs(traj[1][0]) > 0.9  # corrected form would give ~0.1

    def test_adam(self):
        _, traj = run_steps("adam", [[0.5]], [0.0], alpha=0.1)
        assert traj[1][0] == pytest.approx(-0.09999999800000003, abs=1e-16)

    def test_adam_scale_invariant_first_step(self):
        # bias correction makes the first step ~alpha regardless of |g|
        for g in (1e-4, 1.0, 1e4):
            _, traj = run_steps("adam", [[g]], [0.0], alpha=0.1)
            assert traj[1][0] == pytest.approx(-0.1, rel=1e-3)

    def test_adamw_decay_shrinks(self):
        _, traj = run_steps(
            "adamw", [[0.0], [0.0]], [1.0], alpha=0.5, weight_decay_lambda=0.25
        )
        assert traj[1][0] == 0.875
        assert traj[2][0] == 0.765625

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        ),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 0.99, allow_nan=False),
    )
    def test_adamw_gradient_term_matches_adam(self, grads, lam, gamma):
        # bitwise aliases: adamw is adam under the dispatcher's decoupled
        # decay, and sgd is sgdm with gamma 0 whatever its momentum_gamma
        pairs = (
            (("adamw", {"weight_decay_lambda": lam}), ("adam", {"weight_decay_lambda": lam})),
            (("sgd", {"momentum_gamma": gamma}), ("sgdm", {"momentum_gamma": 0.0})),
        )
        theta0 = [0.5, -1.5, 2.0]
        for (rule_a, kw_a), (rule_b, kw_b) in pairs:
            _, a = run_steps(rule_a, grads, theta0, alpha=0.01, **kw_a)
            _, b = run_steps(rule_b, grads, theta0, alpha=0.01, **kw_b)
            for pa, pb in zip(a, b):
                assert np.array_equal(pa, pb)

    def test_radam_fallback_first_step(self):
        # t = 1, beta2 = 0.999: rho_1 = 1 <= 4, so theta -= alpha * mhat
        _, traj = run_steps("radam", [[0.5]], [0.0], alpha=0.1)
        assert traj[1][0] == pytest.approx(-0.05, abs=1e-15)

    def test_diffgrad_first_step_ratio(self):
        # xi = sigmoid(|0 - g|) on the first step
        _, d = run_steps("diffgrad", [[1.0]], [0.0], alpha=0.1)
        _, a = run_steps("adam", [[1.0]], [0.0], alpha=0.1)
        assert d[1][0] / a[1][0] == pytest.approx(SIGMOID_1, abs=1e-12)

    def test_diffgrad_constant_gradient_halves(self):
        # second step sees |g_prev - g| = 0: xi = 0.5
        _, d = run_steps("diffgrad", [[1.0], [1.0]], [0.0], alpha=0.1)
        _, a = run_steps("adam", [[1.0], [1.0]], [0.0], alpha=0.1)
        assert (d[2][0] - d[1][0]) / (a[2][0] - a[1][0]) == pytest.approx(0.5, abs=1e-12)

    def test_adabelief_first_step(self):
        state, traj = run_steps("adabelief", [[1.0]], [0.0], alpha=0.1)
        # m1 = 0.1, resid = 0.9, v1 = 0.001 * 0.81, vhat = 0.81
        assert state.m[0, 0] == pytest.approx(0.1, abs=1e-16)
        assert state.v[0, 0] == pytest.approx(8.1e-4, abs=1e-18)
        assert traj[1][0] == pytest.approx(-0.1111111098765433, abs=1e-13)

    def test_adabelief_outpaces_adam_on_constant_gradient(self):
        # residuals shrink like beta1^t, so the belief denominator is smaller
        _, b = run_steps("adabelief", [[1.0]] * 3, [0.0], alpha=0.1)
        _, a = run_steps("adam", [[1.0]] * 3, [0.0], alpha=0.1)
        assert abs(b[-1][0]) > abs(a[-1][0])

    def test_angulargrad_cos_first_step(self):
        # a_min = min(prev_angle=0, arctan 0.5) = 0: phi is the cos maximum
        _, traj = run_steps("angulargrad", [[0.5]], [0.0], alpha=0.1, angle_variant="cos")
        assert traj[1][0] == pytest.approx(-0.08807970603619411, abs=1e-16)

    def test_angulargrad_tan_first_step(self):
        # a_min = 0: tan gives phi = 0.5 exactly
        _, traj = run_steps("angulargrad", [[0.5]], [0.0], alpha=0.1, angle_variant="tan")
        assert traj[1][0] == pytest.approx(-0.04999999900000002, abs=1e-16)

    def test_a_min_uses_previous_raw_angle(self):
        # small angle, then two large ones: A_min pairs the last two raw
        # angles, it is not a running minimum over the whole history
        g1, g2, g3 = np.array([0.1]), np.array([-5.0]), np.array([0.5])
        a1 = angle(g1, np.zeros(1))
        a2 = angle(g2, g1)
        a3 = angle(g3, g2)
        assert a1[0] < 0.2 and a2[0] > 1.0 and a3[0] > 1.0
        for variant in ANGLE_VARIANTS:
            state, _ = run_steps(
                "angulargrad", [g1, g2, g3], [0.0], alpha=0.1, angle_variant=variant
            )
            pairwise = angular_coefficient(np.minimum(a2, a3), variant, 0.5, 0.5)
            running = angular_coefficient(a1, variant, 0.5, 0.5)
            assert np.array_equal(state.last_phi[0], pairwise)
            assert not np.array_equal(state.last_phi[0], running)

    def test_angulargrad_state_updates(self):
        state, _ = run_steps("angulargrad", [[0.5]], [0.0], alpha=0.1)
        assert state.prev_angle[0, 0] == pytest.approx(ARCTAN_HALF, abs=1e-15)
        assert state.prev_grad[0, 0] == 0.5
        assert state.last_phi is not None
        assert state.last_phi[0, 0] == PHI_COS_MAX


def one_formula(c, t, m, v, prev_grad, prev_angle, params, g):
    """One step of the module's update written out with the row of
    coefficients of ``c``'s rule: (new params, m, v)."""
    b1, b2, gamma = c.beta1, c.beta2, c.momentum_gamma
    moment = c.rule in MOMENT_RULES
    m_coef = {"sgd": (0.0, 1.0), "sgdm": (gamma, 1.0), "rmsprop": (1.0, 0.0)}.get(
        c.rule, (b1, 1.0 - b1))
    v_coef = (1.0, 0.0) if c.rule in ("sgd", "sgdm") else (b2, 1.0 - b2)
    m = m_coef[0] * m + m_coef[1] * g
    d = g - m if c.rule == "adabelief" else g
    v = v_coef[0] * v + v_coef[1] * d * d
    bc1, bc2 = (1.0 - b1**t, 1.0 - b2**t) if moment else (1.0, 1.0)
    mhat = g if c.rule == "rmsprop" else m / bc1
    denom = 1.0 if c.rule in ("sgd", "sgdm") else np.sqrt(v / bc2) + c.epsilon
    scale = 1.0
    if c.rule == "diffgrad":
        scale = 1.0 / (1.0 + np.exp(-np.abs(g - prev_grad)))
    if c.rule == "radam":
        r_t = radam_terms(t, b2)[2]
        scale, denom = (1.0, 1.0) if r_t is None else (r_t, denom)
    if c.rule == "angulargrad":
        a_min = np.minimum(prev_angle, angle(g, prev_grad))
        scale = angular_coefficient(a_min, c.angle_variant, c.lambda1, c.lambda2)
    return params - c.alpha * scale * mhat / denom, m, v


ONE_FORMULA_CONFIGS = {
    "sgd": OptimizerConfig(rule="sgd", alpha=0.1),
    "sgdm": OptimizerConfig(rule="sgdm", alpha=0.1, momentum_gamma=0.5),
    "rmsprop": OptimizerConfig(rule="rmsprop", alpha=0.1, beta2=0.9),
    "rmsprop_slow": OptimizerConfig(rule="rmsprop", beta2=0.99),
    "adam": OptimizerConfig(rule="adam", alpha=0.1),
    "adamw": OptimizerConfig(rule="adamw", alpha=0.1, beta1=0.5),
    "radam": OptimizerConfig(rule="radam", alpha=0.1),
    "diffgrad": OptimizerConfig(rule="diffgrad", alpha=0.1),
    "adabelief": OptimizerConfig(rule="adabelief", alpha=0.1, beta2=0.99),
    "angulargrad_cos": OptimizerConfig(rule="angulargrad", alpha=0.1),
    "angulargrad_tan": OptimizerConfig(rule="angulargrad", alpha=0.1, angle_variant="tan"),
}


class TestOneFormula:
    """Every row steps by the one update with its rule's coefficients, from a
    state that is not zero, alone, in a stack of one family or among all."""

    @pytest.mark.parametrize("rows", [
        *([name] for name in ONE_FORMULA_CONFIGS),
        ["sgd", "sgdm"],
        ["rmsprop", "rmsprop_slow"],
        list(ONE_FORMULA_CONFIGS),
    ], ids=lambda rows: "+".join(rows) if len(rows) < 3 else "every-rule")
    @pytest.mark.parametrize("t0", [1, 4])  # radam not yet rectifiable, then rectified
    def test_one_step_from_a_nonzero_state(self, rows, t0):
        cs = [ONE_FORMULA_CONFIGS[name] for name in rows]
        shape = (len(cs), 3)
        rng = make_rng(11)
        params, g, prev_grad, m = (rng.normal(size=shape) for _ in range(4))
        v, prev_angle = rng.random(shape), rng.random(shape) * (math.pi / 2.0)
        lone = len(cs) == 1
        config = cs[0] if lone else ConfigStack(cs)
        state = init_state(config, 3)
        alpha_t = state.alpha_t
        state.t = t0
        fill = (lambda a: a[0]) if lone else (lambda a: a)
        state.m, state.v, state.prev_grad, state.prev_angle = (
            a.copy() for a in (m, v, prev_grad, prev_angle))
        new = step(state, config, fill(params), fill(g)).reshape(shape)
        assert np.array_equal(alpha_t, state.alpha_t)
        for r, c in enumerate(cs):
            want, want_m, want_v = one_formula(
                c, t0 + 1, m[r], v[r], prev_grad[r], prev_angle[r], params[r], g[r])
            assert new[r].tobytes() == want.tobytes()
            assert state.m.reshape(shape)[r].tobytes() == want_m.tobytes()
            assert state.v.reshape(shape)[r].tobytes() == want_v.tobytes()
            # a slot the rule does not read keeps its value
            if c.rule == "rmsprop":
                assert np.array_equal(state.m.reshape(shape)[r], m[r])
            if c.rule in ("sgd", "sgdm"):
                assert np.array_equal(state.v.reshape(shape)[r], v[r])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_rmsprop_zero_gradient_keeps_ieee_sign(self, stacked):
        # theta - alpha * g / denom with g = theta = -0.0 is -0.0 - -0.0 = +0.0;
        # a beta1 = 0 moment, 0 * m + g, would make g +0.0 and the result -0.0
        rmsprop, adam = OptimizerConfig(rule="rmsprop"), OptimizerConfig(rule="adam")
        rows = [rmsprop, adam] if stacked else [rmsprop]
        config = ConfigStack(rows) if stacked else rows[0]
        shape = (len(rows), 2) if stacked else (2,)
        state = init_state(config, 2)
        state.v = np.full((len(rows), 2), 0.25)
        new = step(state, config, np.full(shape, -0.0), np.full(shape, -0.0))
        assert new.reshape(-1, 2)[0].tobytes() == np.zeros(2).tobytes()


class TestRadamTerms:
    def test_rho_inf(self):
        assert radam_terms(1, 0.999)[0] == pytest.approx(1999.0, abs=1e-9)

    def test_first_rectified_step_is_five(self):
        assert radam_terms(4, 0.999)[2] is None
        assert radam_terms(4, 0.999)[1] == pytest.approx(3.9974987498546852, abs=1e-12)
        rho_inf, rho_5, r_5 = radam_terms(5, 0.999)
        assert rho_5 == pytest.approx(4.995998000395048, abs=1e-12)
        assert r_5 == pytest.approx(0.017311503166315034, abs=1e-14)

    def test_rectification_approaches_one(self):
        assert radam_terms(10**6, 0.999)[2] == pytest.approx(1.0, abs=1e-3)

    def test_rectified_step_is_conservative(self):
        # constant gradient: steps 1-4 use the momentum fallback (size alpha*g),
        # step 5 switches to the rectified branch scaled by r_5 ~ 0.017
        _, traj = run_steps("radam", [[1.0]] * 5, [0.0], alpha=0.1)
        first = abs(traj[1][0] - traj[0][0])
        fifth = abs(traj[5][0] - traj[4][0])
        assert fifth < 0.05 * first


class TestPhiOverride:
    """phi held constant: lambda1 = 0 makes phi = lambda2 exactly."""

    def test_reduces_to_adam_bitwise(self):
        rng = make_rng(3)
        grads = rng.normal(size=(50, 8))
        cfg_ag = OptimizerConfig(rule="angulargrad", alpha=0.01, lambda1=0.0, lambda2=1.0)
        cfg_ad = OptimizerConfig(rule="adam", alpha=0.01)
        p_ag = np.zeros(8)
        p_ad = np.zeros(8)
        s_ag = init_state(cfg_ag, 8)
        s_ad = init_state(cfg_ad, 8)
        for g in grads:
            p_ag = step(s_ag, cfg_ag, p_ag, g)
            p_ad = step(s_ad, cfg_ad, p_ad, g)
            assert np.array_equal(p_ag, p_ad)

    def test_override_scales_step(self):
        g = [[0.5]]
        _, full = run_steps("angulargrad", g, [0.0], alpha=0.1, lambda1=0.0, lambda2=1.0)
        _, half = run_steps("angulargrad", g, [0.0], alpha=0.1, lambda1=0.0, lambda2=0.5)
        assert half[1][0] == pytest.approx(0.5 * full[1][0], abs=1e-18)


class TestSharedContract:
    @pytest.mark.parametrize("rule", RULES)
    def test_zero_gradient_is_noop(self, rule):
        theta = np.array([1.0, -2.0, 0.5])
        _, traj = run_steps(rule, [np.zeros(3)] * 3, theta, alpha=0.1)
        assert np.array_equal(traj[-1], theta)

    @pytest.mark.parametrize("rule", RULES)
    def test_t_increments(self, rule):
        state, _ = run_steps(rule, [np.ones(2) * 0.1] * 4, np.zeros(2), alpha=0.01)
        assert state.t == 4

    @pytest.mark.parametrize("rule", RULES)
    def test_prev_grad_stored(self, rule):
        state, _ = run_steps(rule, [[0.3], [0.7]], [0.0], alpha=0.01)
        assert state.prev_grad[0, 0] == 0.7

    @pytest.mark.parametrize("rule", RULES)
    def test_shape_and_finiteness(self, rule):
        rng = make_rng(5)
        grads = rng.normal(size=(10, 4))
        _, traj = run_steps(rule, grads, np.zeros(4), alpha=1e-3)
        assert traj[-1].shape == (4,)
        assert np.all(np.isfinite(traj[-1]))

    def test_angular_step_never_exceeds_adam(self):
        # same gradient sequence -> identical moments, so each angular update
        # is the adam update scaled by phi <= 1
        rng = make_rng(9)
        grads = rng.normal(size=(20, 6))
        for variant in ANGLE_VARIANTS:
            cfg_ag = OptimizerConfig(rule="angulargrad", alpha=0.01, angle_variant=variant)
            cfg_ad = OptimizerConfig(rule="adam", alpha=0.01)
            s_ag = init_state(cfg_ag, 6)
            s_ad = init_state(cfg_ad, 6)
            p_ag = np.zeros(6)
            p_ad = np.zeros(6)
            for g in grads:
                n_ag = step(s_ag, cfg_ag, p_ag, g)
                n_ad = step(s_ad, cfg_ad, p_ad, g)
                assert np.all(np.abs(n_ag - p_ag) <= np.abs(n_ad - p_ad) + 1e-18)
                p_ag, p_ad = n_ag, n_ad

    def test_nonfinite_guard(self):
        cfg = OptimizerConfig(rule="sgd", alpha=10.0)
        state = init_state(cfg, 2)
        with pytest.raises(NonFiniteStepError) as exc, np.errstate(over="ignore"):
            step(state, cfg, np.zeros(2), np.array([0.0, 1e308]))
        assert exc.value.rule == "sgd"
        assert exc.value.coordinate == 1
        assert exc.value.iteration == 1

    def test_dim_mismatch_params_grad(self):
        cfg = OptimizerConfig()
        state = init_state(cfg, 2)
        with pytest.raises(ValueError):
            step(state, cfg, np.zeros(2), np.zeros(3))

    def test_dim_mismatch_state(self):
        cfg = OptimizerConfig()
        state = init_state(cfg, 2)
        with pytest.raises(ValueError):
            step(state, cfg, np.zeros(3), np.zeros(3))

    def test_init_state_zeroed(self):
        state = init_state(OptimizerConfig(), 3)
        assert state.t == 0
        for vec in (state.m, state.v, state.prev_grad, state.prev_angle):
            assert np.array_equal(vec, np.zeros((1, 3)))
        assert np.array_equal(state.alpha_t, np.full((1, 3), 1e-3))
        assert state.last_phi is None

    def test_init_state_bad_dim(self):
        with pytest.raises(ValueError):
            init_state(OptimizerConfig(), 0)


def centralized(g):
    """The gradient GC hands the kernel, read back as the stored prev_grad."""
    config = OptimizerConfig(rule="sgd", gc_enabled=True)
    state = init_state(config, len(g))
    step(state, config, np.zeros(len(g)), np.asarray(g, dtype=np.float64))
    return state.prev_grad[0]


def adapted_rate(alpha, g, g_prev, omega):
    """The rate HGD adapts from ``alpha`` for a step on g after g_prev."""
    config = OptimizerConfig(rule="sgd", alpha=alpha, hypergrad_omega=omega)
    state = init_state(config, len(g))
    state.prev_grad[0] = g_prev
    step(state, config, np.zeros(len(g)), np.asarray(g, dtype=np.float64))
    return state.alpha_t[0, 0]


class TestWrappers:
    def test_gc_example(self):
        out = centralized(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [-1.0, 0.0, 1.0])

    def test_gc_output_sums_to_zero(self):
        rng = make_rng(21)
        for _ in range(20):
            g = rng.normal(size=7)
            assert abs(centralized(g).sum()) < 1e-12

    def test_gc_scalar(self):
        assert np.array_equal(centralized(np.array([4.2])), [0.0])

    def test_hgd_example(self):
        out = adapted_rate(0.1, np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0.01)
        assert out == pytest.approx(0.21, abs=1e-15)

    def test_hgd_zero_omega(self):
        assert adapted_rate(0.1, np.ones(2), np.ones(2), 0.0) == 0.1

    def test_hgd_opposing_gradients_cut_rate(self):
        out = adapted_rate(0.1, np.array([1.0]), np.array([-1.0]), 0.05)
        assert out == pytest.approx(0.05, abs=1e-15)


class TestDispatcherComposition:
    def test_weight_decay_composes_with_sgd(self):
        _, traj = run_steps(
            "sgd", [[0.0]], [1.0], alpha=0.1, weight_decay_lambda=0.1
        )
        assert traj[1][0] == pytest.approx(0.99, abs=1e-15)

    def test_weight_decay_not_doubled_for_adamw(self):
        # adamw's decay comes from the dispatcher alone and is applied once
        _, traj = run_steps(
            "adamw", [[0.0]], [1.0], alpha=0.5, weight_decay_lambda=0.25
        )
        assert traj[1][0] == 0.875

    def test_gc_enabled_centers_gradient(self):
        _, traj = run_steps(
            "sgd", [np.array([1.0, 3.0])], np.zeros(2), alpha=0.1, gc_enabled=True
        )
        assert np.allclose(traj[1], [0.1, -0.1], atol=1e-15)

    def test_hgd_first_step_unchanged(self):
        # stored previous gradient is zero, so the first dot product vanishes
        state, _ = run_steps("sgd", [[1.0]], [0.0], alpha=0.1, hypergrad_omega=0.01)
        assert state.alpha_t[0, 0] == 0.1

    def test_hgd_adapts_before_second_step(self):
        state, traj = run_steps(
            "sgd", [[1.0], [2.0]], [0.0], alpha=0.1, hypergrad_omega=0.01
        )
        # alpha_2 = 0.1 + 0.01 * (2 * 1) = 0.12, applied to the second step
        assert state.alpha_t[0, 0] == pytest.approx(0.12, abs=1e-15)
        assert traj[2][0] == pytest.approx(traj[1][0] - 0.12 * 2.0, abs=1e-15)

    def test_hgd_composes_with_angulargrad(self):
        state, _ = run_steps(
            "angulargrad", [[1.0], [1.0]], [0.0], alpha=0.1, hypergrad_omega=0.01
        )
        assert state.alpha_t[0, 0] > 0.1


class TestStackFastPaths:
    """The cheap forms ``step`` takes on a stack give the full forms' results."""

    def test_perpendicular_angle_on_a_stack(self):
        # 2 * -0.5 == -1: the angle's denominator is exactly zero on every row
        stack = ConfigStack([
            *(OptimizerConfig(rule="angulargrad", angle_variant=v) for v in ("cos", "tan")),
            OptimizerConfig(rule="sgd"),
        ])
        state = init_state(stack, 1)
        state.prev_grad[:] = 2.0
        state.prev_angle[:] = math.pi / 2.0
        step(state, stack, np.zeros((3, 1)), np.full((3, 1), -0.5))
        assert np.array_equal(state.prev_angle, np.full((3, 1), math.pi / 2.0))
        for row, variant in enumerate(("cos", "tan")):
            want = angular_coefficient(np.array([math.pi / 2.0]), variant, 0.5, 0.5)
            assert state.last_phi[row].tobytes() == want.tobytes()

    @pytest.mark.parametrize("variants", [
        ["tan", None, "cos", None, "tan"], ["cos", None], [None, "tan"], ["tan", "cos"],
    ], ids=lambda vs: "+".join(v or "sgd" for v in vs))
    @pytest.mark.parametrize("dim", [1, 2, 99])
    @pytest.mark.parametrize("a_min", [0.0, 1e-8, 0.3, math.pi / 2.0])
    def test_each_angular_row_takes_its_own_trig(self, variants, dim, a_min):
        # a perpendicular step (2 * -0.5 == -1) makes a_t = pi/2, so a_min is
        # the previous angle; rows without a variant run sgd
        configs = [OptimizerConfig(rule="sgd") if v is None else
                   OptimizerConfig(rule="angulargrad", angle_variant=v) for v in variants]
        stack = ConfigStack(configs, dim)
        state = init_state(stack, dim)
        state.prev_grad[:] = 2.0
        state.prev_angle[:] = a_min
        shape = (len(configs), dim)
        step(state, stack, np.zeros(shape), np.full(shape, -0.5))
        for row, variant in enumerate(variants):
            if variant is not None:
                want = angular_coefficient(np.full(dim, a_min), variant, 0.5, 0.5)
                assert state.last_phi[row].tobytes() == want.tobytes()

    def test_finite_stack_whose_sum_overflows(self):
        # the rows sum to inf while every entry stays finite: no abort
        stack = ConfigStack([OptimizerConfig(rule="sgd", alpha=1e-300)] * 2)
        params = np.full((2, 1), 1e308)
        new = step(init_state(stack, 1), stack, params, np.ones((2, 1)))
        assert new.tobytes() == params.tobytes()

    def test_nonfinite_rows_of_a_sum_that_overflows(self):
        assert nonfinite_rows(np.full((2, 1), 1e308), "reason") == {}

    def test_bias_correction_betas_come_from_moment_rows(self):
        # rmsprop's beta2 is its smoothing constant rho, not a bias correction
        stack = ConfigStack([
            OptimizerConfig(rule="sgd", beta2=0.5),
            OptimizerConfig(rule="rmsprop", beta2=0.99),
            OptimizerConfig(rule="adam"),
        ])
        assert stack.beta1 == 0.9 and stack.beta2 == 0.999
        assert ConfigStack([OptimizerConfig(rule="sgd", beta2=0.5)]).beta2 == 0.5


class TestStackWidth:
    """A stack meets its width D in ``Runs``: every array column the kernel
    reads, and the live rate, is (R, D), so no step broadcasts an (R, 1)."""

    @staticmethod
    def wide_arrays(runs):
        columns = [v for v in vars(runs.configs).values() if isinstance(v, np.ndarray)]
        return [*columns, runs.state.alpha_t]

    # the rate, and on rosenbrock the four moment coefficients its plain rules
    # set apart; the mlp rows share every coefficient
    @pytest.mark.parametrize("protocol, seeds, dim, n_arrays", [
        ("rosenbrock", 1, 2, 5), ("mlp", 5, 99, 1)])
    def test_default_sets_step_at_full_width(self, protocol, seeds, dim, n_arrays):
        configs = default_config(protocol)["optimizers"].values()
        stack = ConfigStack(OptimizerConfig(**c) for c in configs for _ in range(seeds))
        runs = Runs(stack, np.zeros((len(stack.configs), dim)))
        for rows in (len(stack.configs), len(stack.configs) - 1):
            arrays = self.wide_arrays(runs)
            assert len(arrays) == n_arrays
            assert all(a.shape == (rows, dim) for a in arrays)
            runs.drop({0: "dropped"}, 0)

    @staticmethod
    def selectors(stack):
        names = ("momentum", "rmsprop", "diffgrad", "adabelief", "angular", "gc", "hgd", "decay")
        yield from (getattr(stack, name) for name in names)
        yield from (rows for _, rows in stack.radam)
        yield from stack.variant if isinstance(stack.variant, tuple) else ()

    @pytest.mark.parametrize("protocol, seeds, dim", [
        ("toy", 1, 1), ("rosenbrock", 1, 2), ("mlp", 5, 99), ("regret", 1, 10)])
    @pytest.mark.parametrize("dropped", ["none", "first", "middle", "last"])
    def test_default_selects_families_by_slices(self, protocol, seeds, dim, dropped):
        # optimizer-major stacks hold each family in adjacent rows, so every
        # family's terms run on a contiguous view, before and after a drop
        configs = default_config(protocol)["optimizers"].values()
        stack = ConfigStack(OptimizerConfig(**c) for c in configs for _ in range(seeds))
        runs = Runs(stack, np.zeros((len(stack.configs), dim)))
        n = len(stack.configs)
        if dropped != "none":
            runs.drop({{"first": 0, "middle": n // 2, "last": n - 1}[dropped]: "dropped"}, 0)
        selectors = list(self.selectors(runs.configs))
        assert any(isinstance(rows, slice) for rows in selectors)
        for rows in selectors:
            assert rows is None or isinstance(rows, slice) and rows.step is None

    def test_scattered_family_takes_an_index_array(self):
        adam, cos = OptimizerConfig(rule="adam"), OptimizerConfig(rule="angulargrad")
        stack = ConfigStack([cos, adam, cos, adam])
        assert stack.angular.tolist() == [0, 2]
        assert stack.momentum is None and stack.radam == ()
        assert ConfigStack([cos]).angular == slice(None)
        assert ConfigStack([adam, cos, cos]).angular == slice(1, 3)

    def test_lone_stack_holds_no_arrays(self):
        for rule in RULES:
            stack = OptimizerConfig(rule=rule, hypergrad_omega=0.1, gc_enabled=True).stack
            assert not any(isinstance(v, np.ndarray) for v in vars(stack).values())


# ---------------------------------------------------------------------------
# The row-mask kernel, frozen: each rule family's terms on every row, picked
# with np.where.  The live kernel must keep its bits on every row a run reads.


def frozen_column(values, width: int):
    if all(v == values[0] for v in values):
        return values[0]
    return np.repeat(np.array(values).reshape(-1, 1), width, axis=1)


def frozen_pick(mask, a, b):
    return a if mask is True else b if mask is False else np.where(mask, a, b)


def frozen_moment_coefficients(c: OptimizerConfig) -> tuple:
    if c.rule in ("sgd", "sgdm"):
        return (c.momentum_gamma if c.rule == "sgdm" else 0.0), 1.0, 1.0, 0.0
    m = (1.0, 0.0) if c.rule == "rmsprop" else (c.beta1, 1.0 - c.beta1)
    return *m, c.beta2, 1.0 - c.beta2


class FrozenStack:
    """The mask-building ConfigStack."""

    def __init__(self, configs, width: int = 1):
        self.configs = cs = tuple(configs)
        self.width = width
        column = lambda values: frozen_column(values, width)
        for name in ("epsilon", "lambda1", "lambda2"):
            setattr(self, name, column([getattr(c, name) for c in cs]))
        moment = next((c for c in cs if c.rule in MOMENT_RULES), cs[0])
        betas = [c if c.rule in MOMENT_RULES else moment for c in cs]
        self.beta1, self.beta2 = column([c.beta1 for c in betas]), column([c.beta2 for c in betas])
        coefficients = zip(*map(frozen_moment_coefficients, cs))
        self.m_decay, self.m_gain, self.v_decay, self.v_gain = map(column, coefficients)
        self.omega = column([c.hypergrad_omega for c in cs])
        self.decay_lambda = column([c.weight_decay_lambda for c in cs])
        rules = [c.rule for c in cs]
        self.momentum = column([r in ("sgd", "sgdm") for r in rules])
        self.rmsprop = column([r == "rmsprop" for r in rules])
        self.moment = column([r in MOMENT_RULES for r in rules])
        for rule in ("radam", "diffgrad", "adabelief"):
            setattr(self, rule, column([r == rule for r in rules]))
        self.angular = column([r == "angulargrad" for r in rules])
        cos, tan = (column([c.rule == "angulargrad" and c.angle_variant == v for c in cs])
                    for v in ANGLE_VARIANTS)
        mixed = isinstance(self.angular, np.ndarray) or isinstance(tan, np.ndarray)
        self.variant = (cos, tan) if mixed else ("tan" if tan else "cos")
        self.gc = column([bool(c.gc_enabled) for c in cs])
        self.hgd = column([c.hypergrad_omega > 0.0 for c in cs])
        self.decay = column([c.weight_decay_lambda > 0.0 for c in cs])


def frozen_angle(gap, g_t, g_prev):
    return np.arctan(gap / np.abs(1.0 + g_t * g_prev))


def frozen_angular_coefficient(a_min, variant, lambda1, lambda2):
    a_min = np.asarray(a_min, dtype=np.float64)
    phi = np.empty(a_min.shape)
    if isinstance(variant, tuple):
        phi.fill(1.0)
        for fn, rows in zip((np.cos, np.tan), variant):
            fn(a_min, out=phi, where=rows)
    elif variant in ANGLE_VARIANTS:
        (np.cos if variant == "cos" else np.tan)(a_min, out=phi)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    np.tanh(np.abs(phi, out=phi), out=phi)
    phi *= lambda1
    phi += lambda2
    return phi


def frozen_bias_correction(cfg, beta, t: int):
    if cfg.moment is False:
        return 1.0
    if isinstance(beta, np.ndarray):
        bc = frozen_column([1.0 - b**t for b in beta[:, 0].tolist()], cfg.width)
    else:
        bc = 1.0 - beta**t
    return frozen_pick(cfg.moment, bc, 1.0)


def frozen_rule_kernel(state, cfg, params, grad):
    t = state.t + 1
    m = cfg.m_decay * state.m + cfg.m_gain * grad
    d = grad if cfg.adabelief is False else frozen_pick(cfg.adabelief, grad - m, grad)
    v = cfg.v_decay * state.v + cfg.v_gain * d * d
    bc1 = frozen_bias_correction(cfg, cfg.beta1, t)
    bc2 = frozen_bias_correction(cfg, cfg.beta2, t)
    mhat = frozen_pick(cfg.rmsprop, grad, m / bc1)
    denom = frozen_pick(cfg.momentum, 1.0, np.sqrt(v / bc2) + cfg.epsilon)
    scale = 1.0
    if cfg.diffgrad is not False or cfg.angular is not False:
        gap = np.abs(grad - state.prev_grad)
    if cfg.diffgrad is not False:
        xi = 1.0 / (1.0 + np.exp(-gap))
        scale = frozen_pick(cfg.diffgrad, xi, scale)
    if cfg.radam is not False:
        r_ts = [radam_terms(t, c.beta2)[2] if c.rule == "radam" else 1.0 for c in cfg.configs]
        r_t = frozen_column([1.0 if r is None else r for r in r_ts], cfg.width)
        scale = frozen_pick(cfg.radam, r_t, scale)
        if (unrectified := frozen_column([r is None for r in r_ts], cfg.width)) is not False:
            denom = frozen_pick(unrectified, 1.0, denom)
    if cfg.angular is not False:
        a_t = frozen_angle(gap, grad, state.prev_grad)
        a_min = np.minimum(state.prev_angle, a_t)
        phi = frozen_angular_coefficient(a_min, cfg.variant, cfg.lambda1, cfg.lambda2)
        scale = frozen_pick(cfg.angular, phi, scale)
        state.prev_angle = a_t
        state.last_phi = phi
    state.t, state.m, state.v = t, m, v
    state.prev_grad = grad.copy()
    return params - state.alpha_t * scale * mhat / denom


def frozen_mean(a):
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        raise ValueError("mean of empty vector")
    return float(np.mean(a)) if a.ndim == 1 else np.mean(a, axis=-1, keepdims=True)


def frozen_gc_transform(grad):
    grad = np.asarray(grad, dtype=np.float64)
    if grad.size == 0:
        raise ValueError("empty gradient")
    return grad - frozen_mean(grad)


def frozen_hgd_adapt(alpha_prev, grad_t, grad_tm1, omega):
    grad_t = np.asarray(grad_t, dtype=np.float64)
    grad_tm1 = np.asarray(grad_tm1, dtype=np.float64)
    if grad_t.shape != grad_tm1.shape:
        raise ValueError("dim mismatch")
    dot = np.vecdot(grad_t, grad_tm1)
    if grad_t.ndim == 1:
        return float(alpha_prev + omega * dot)
    return alpha_prev + omega * dot[:, None]


def frozen_step(state, config, params, grad):
    cfg = config if isinstance(config, FrozenStack) else FrozenStack((config,))
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if cfg.gc is not False:
            grad = frozen_pick(cfg.gc, frozen_gc_transform(grad), grad)
        if cfg.hgd is not False:
            adapted = frozen_hgd_adapt(state.alpha_t, grad, state.prev_grad, cfg.omega)
            state.alpha_t = frozen_pick(cfg.hgd, adapted, state.alpha_t)
        new = frozen_rule_kernel(state, cfg, params, grad)
        if cfg.decay is not False:
            decayed = new - state.alpha_t * cfg.decay_lambda * params
            new = frozen_pick(cfg.decay, decayed, new)
        finite = math.isfinite(np.add.reduce(new, axis=None)) or np.isfinite(new).all()
    if not finite:
        bad = enumerate(map(first_nonfinite, new.reshape(-1, new.shape[-1])))
        rules = [c.rule for c in cfg.configs]
        errors = {r: NonFiniteStepError(state.t, i, rules[r]) for r, i in bad if i is not None}
        err = next(iter(errors.values()))
        err.rows, err.params = errors, new
        raise err
    return new


def copy_state(state: OptimizerState) -> OptimizerState:
    slots = vars(state).items()
    return OptimizerState(**{k: v.copy() if isinstance(v, np.ndarray) else v for k, v in slots})


def outcome(step_fn, state, config, params, grad):
    """The new params, or the error's text, failed rows and stepped stack."""
    try:
        return step_fn(state, config, params, grad), None
    except NonFiniteStepError as err:
        rows = {r: str(e) for r, e in err.rows.items()}
        return err.params, (str(err), rows)


def assert_steps_match_frozen(config, state, params, grads, frozen_state=None):
    """Step ``config`` from a copy of ``state`` and the frozen kernel from one
    of ``frozen_state`` (default ``state``) through ``grads``; every slot a run
    reads keeps the frozen bytes at every step (a float rate across its row)."""
    configs = config.configs if isinstance(config, ConfigStack) else (config,)
    frozen = FrozenStack(configs, config.width) if isinstance(config, ConfigStack) else config
    angular = [r for r, c in enumerate(configs) if c.rule == "angulargrad"]
    rows = lambda a: np.asarray(a, dtype=np.float64).reshape(len(configs), -1)
    mine, theirs = copy_state(state), copy_state(state if frozen_state is None else frozen_state)
    for grad in grads:
        got, got_err = outcome(step, mine, config, params, grad)
        want, want_err = outcome(frozen_step, theirs, frozen, params, grad)
        assert got.tobytes() == want.tobytes()
        assert got_err == want_err
        assert mine.t == theirs.t
        for slot in ("m", "v", "prev_grad"):
            assert rows(getattr(mine, slot)).tobytes() == rows(getattr(theirs, slot)).tobytes()
        rate = np.broadcast_to(rows(theirs.alpha_t), mine.alpha_t.shape)
        assert mine.alpha_t.tobytes() == rate.tobytes()
        if angular:
            for slot in ("prev_angle", "last_phi"):
                got_rows, want_rows = rows(getattr(mine, slot)), rows(getattr(theirs, slot))
                assert got_rows[angular].tobytes() == want_rows[angular].tobytes()
        if want_err is not None:
            return want_err
        params = got


# every rule, both variants; beta2 = 0.5 keeps RAdam unrectified for good
FROZEN_BETAS = [(0.9, 0.999), (0.5, 0.99), (0.0, 0.5), (0.9, 0.9)]
FROZEN_ROWS = [(r, "cos") for r in RULES] + [("angulargrad", "tan")]


def random_config(rng, rule, variant, extras=True) -> OptimizerConfig:
    beta1, beta2 = FROZEN_BETAS[rng.integers(len(FROZEN_BETAS))]
    pick = lambda *values: values[rng.integers(len(values))]
    return OptimizerConfig(
        rule=rule, angle_variant=variant, beta1=beta1, beta2=beta2,
        alpha=pick(1e-3, 0.1), epsilon=pick(1e-8, 1e-3), momentum_gamma=pick(0.9, 0.5),
        lambda1=pick(0.5, 0.3), lambda2=pick(0.5, 0.25),
        hypergrad_omega=pick(0.0, 0.01) if extras else 0.0,
        weight_decay_lambda=pick(0.0, 0.1) if extras else 0.0,
        gc_enabled=bool(pick(False, True)) if extras else False,
    )


def random_grads(rng, shape, steps=10):
    """Normal gradients with a few exact +-0.0 and repeated entries."""
    grads = rng.normal(size=(steps, *shape)) * rng.choice([0.1, 1.0, 10.0], size=(steps, *shape))
    grads[rng.random(grads.shape) < 0.1] = 0.0
    grads[rng.random(grads.shape) < 0.1] = -0.0
    for t in range(1, steps):
        repeat = rng.random(shape) < 0.1
        grads[t][repeat] = grads[t - 1][repeat]
    return grads


class TestFrozenStep:
    """``step`` keeps the frozen row-mask kernel's bytes on every row: params,
    t, m, v, alpha_t, prev_grad, and on angular rows prev_angle and last_phi,
    plus a failed step's text and rows."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [1, 2, 99])
    @pytest.mark.parametrize("n_rows", [1, 2, 6, 30])
    @pytest.mark.parametrize("built_by_runs", [False, True], ids=["width-1", "runs"])
    def test_random_stacks(self, n_rows, dim, seed, built_by_runs):
        rng = make_rng(1000 * n_rows + 10 * dim + seed)
        configs = [random_config(rng, *FROZEN_ROWS[i]) for i in rng.integers(len(FROZEN_ROWS), size=n_rows)]
        params = rng.normal(size=(n_rows, dim))
        if built_by_runs:
            runs = Runs(ConfigStack(configs), params)
            stack, state = runs.configs, runs.state
        else:
            stack = ConfigStack(configs)
            state = init_state(stack, dim)
        assert_steps_match_frozen(stack, state, params, random_grads(rng, params.shape))

    @pytest.mark.parametrize("rule, variant", FROZEN_ROWS)
    @pytest.mark.parametrize("dim", [1, 2, 99])
    def test_lone_calls(self, rule, variant, dim):
        rng = make_rng(dim)
        for _ in range(3):
            config = random_config(rng, rule, variant)
            # the frozen lone form keeps 1-D slots and a float rate
            z = lambda: np.zeros(dim)
            lone = OptimizerState(t=0, m=z(), v=z(), prev_grad=z(), prev_angle=z(),
                                  alpha_t=config.alpha)
            assert_steps_match_frozen(config, init_state(config, dim), rng.normal(size=dim),
                                      random_grads(rng, (dim,)), lone)

    @pytest.mark.parametrize("dim", [1, 2, 99])
    @pytest.mark.parametrize("width", ["one", "full"])
    def test_families_in_non_adjacent_rows(self, dim, width):
        rng = make_rng(dim)
        rows = [("angulargrad", "cos"), ("adam", "cos"), ("angulargrad", "tan"),
                ("diffgrad", "cos"), ("adam", "cos"), ("diffgrad", "cos")]
        configs = [random_config(rng, *row) for row in rows]
        # GC, HGD and decay on alternate rows too
        configs = [dataclasses.replace(c, gc_enabled=r % 2 == 0, hypergrad_omega=0.01 * (r % 2),
                                       weight_decay_lambda=0.1 * (r % 3 == 0))
                   for r, c in enumerate(configs)]
        stack = ConfigStack(configs, dim if width == "full" else 1)
        params = rng.normal(size=(len(configs), dim))
        assert_steps_match_frozen(stack, init_state(stack, dim), params, random_grads(rng, params.shape))

    @pytest.mark.parametrize("beta2s", [(0.999,), (0.999, 0.5), (0.5, 0.99, 0.999)])
    def test_radam_before_and_after_rectification(self, beta2s):
        # rectification starts at t = 5 for beta2 0.99 and 0.999, never for 0.5
        configs = [OptimizerConfig(rule="radam", beta1=0.5, beta2=b) for b in beta2s]
        stack = ConfigStack([OptimizerConfig(rule="sgd"), *configs, OptimizerConfig(rule="adam")], 3)
        rng = make_rng(len(beta2s))
        params = rng.normal(size=(len(stack.configs), 3))
        assert_steps_match_frozen(stack, init_state(stack, 3), params, random_grads(rng, params.shape, 8))

    @pytest.mark.parametrize("dim", [1, 2, 99])
    def test_perpendicular_angle_and_signed_zeros(self, dim):
        stack = ConfigStack([OptimizerConfig(rule=r, angle_variant=v) for r, v in FROZEN_ROWS], dim)
        shape = (len(stack.configs), dim)
        state = init_state(stack, dim)
        state.prev_grad[:] = 2.0
        state.prev_angle[:] = math.pi / 2.0
        # 2 * -0.5 == -1 makes every angle's denominator exactly zero
        grads = [np.full(shape, -0.5), np.full(shape, -0.0), np.zeros(shape), np.full(shape, -0.0)]
        assert_steps_match_frozen(stack, state, np.full(shape, -0.0), grads)

    def test_failed_rows(self):
        configs = [OptimizerConfig(rule="sgd", alpha=10.0), OptimizerConfig(rule="angulargrad"),
                   OptimizerConfig(rule="rmsprop", alpha=10.0), OptimizerConfig(rule="adam")]
        stack = ConfigStack(configs, 2)
        grads = np.ones((2, 4, 2))
        grads[1, [0, 2], 1] = 1e308
        _, rows = assert_steps_match_frozen(stack, init_state(stack, 2), np.zeros((4, 2)), grads)
        assert list(rows) == [0, 2]

    def test_after_dropping_a_middle_row(self):
        rng = make_rng(7)
        configs = [dataclasses.replace(random_config(rng, *row, extras=False), gc_enabled=r % 2 == 0)
                   for r, row in enumerate(FROZEN_ROWS)]
        runs = Runs(ConfigStack(configs), rng.normal(size=(len(configs), 5)))
        for grad in random_grads(rng, runs.params.shape, 3):
            runs.params = runs.step(grad, {})
        runs.drop({len(configs) // 2: "dropped"}, runs.state.t)
        assert runs.live.size == len(configs) - 1
        assert_steps_match_frozen(runs.configs, runs.state, runs.params,
                                  random_grads(rng, runs.params.shape))


    def test_after_dropping_a_diffgrad_and_a_radam_row(self):
        # the step scale lives in a buffer the state keeps: the rows left after
        # the drop step on through RAdam's rectification at t = 5 from it
        rng = make_rng(11)
        rows = [("diffgrad", "cos"), ("radam", "cos"), ("adam", "cos"), ("angulargrad", "tan"),
                ("radam", "cos"), ("diffgrad", "cos"), ("sgd", "cos"), ("angulargrad", "cos")]
        configs = [dataclasses.replace(random_config(rng, *row, extras=False), beta1=0.5,
                                       beta2=0.5 if r == 1 else 0.99)
                   for r, row in enumerate(rows)]
        runs = Runs(ConfigStack(configs), rng.normal(size=(len(configs), 3)))
        for grad in random_grads(rng, runs.params.shape, 3):
            runs.params = runs.step(grad, {})
        runs.drop({0: "dropped", 1: "dropped"}, runs.state.t)
        assert [c.rule for c in runs.configs.configs] == [rule for rule, _ in rows[2:]]
        assert_steps_match_frozen(runs.configs, runs.state, runs.params,
                                  random_grads(rng, runs.params.shape, 6))


class TestLoneRun:
    """A lone run is the one-row stack: ``init_state`` and ``step`` on an
    OptimizerConfig and a vector give the one-row stack's state, slot for slot."""

    @pytest.mark.parametrize("rule, variant", FROZEN_ROWS)
    def test_lone_calls_are_the_one_row_stack(self, rule, variant):
        config = OptimizerConfig(rule=rule, angle_variant=variant, alpha=0.01, gc_enabled=True,
                                 hypergrad_omega=0.01, weight_decay_lambda=0.1)
        rng = make_rng(RULES.index(rule))
        lone, stacked = init_state(config, 4), init_state(config.stack, 4)
        params = rng.normal(size=4)
        for grad in [None, *random_grads(rng, (4,), 6)]:
            if grad is not None:
                new = step(lone, config, params, grad)
                want = step(stacked, config.stack, params[None], grad[None])
                assert new.shape == (4,) and new.tobytes() == want.tobytes()
                params = new
            for slot, want_slot in vars(stacked).items():
                got = getattr(lone, slot)
                assert type(got) is type(want_slot)
                if isinstance(want_slot, np.ndarray):
                    assert got.shape == want_slot.shape == (1, 4)
                    assert got.tobytes() == want_slot.tobytes()
                else:
                    assert got == want_slot
