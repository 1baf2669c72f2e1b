"""Update-rule oracles, angular machinery bounds, wrappers, and the dispatcher."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angular_optim.defaults import default_config
from angular_optim.numerics import make_rng
from angular_optim.optimizers import (
    ANGLE_VARIANTS,
    MOMENT_RULES,
    RULES,
    ConfigStack,
    NonFiniteStepError,
    OptimizerConfig,
    OptimizerState,
    Runs,
    angle_between,
    angular_coefficient,
    gc_transform,
    hgd_adapt,
    init_state,
    nonfinite_rows,
    radam_terms,
    step,
)

TANH_1 = 0.7615941559557649
PHI_COS_MAX = 0.8807970779778824  # tanh(1) * 0.5 + 0.5, attained at a_min = 0
ARCTAN_HALF = 0.4636476090008061
SIGMOID_1 = 0.7310585786300049


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
        assert np.array_equal(angle_between(np.array([0.7]), np.array([0.7])), [0.0])

    def test_first_step_against_zero(self):
        a = angle_between(np.array([0.5]), np.array([0.0]))
        assert a[0] == pytest.approx(ARCTAN_HALF, abs=1e-15)

    def test_perpendicular_slopes(self):
        # g * g_prev = -1 makes the denominator vanish: right angle
        a = angle_between(np.array([1.0]), np.array([-1.0]))
        assert a[0] == math.pi / 2.0

    def test_symmetric(self):
        g1 = np.array([0.3, -2.0, 5.0])
        g2 = np.array([-1.1, 0.0, 4.0])
        assert np.array_equal(angle_between(g1, g2), angle_between(g2, g1))

    def test_elementwise(self):
        a = angle_between(np.array([0.5, 1.0]), np.array([0.0, -1.0]))
        assert a[0] == pytest.approx(ARCTAN_HALF, abs=1e-15)
        assert a[1] == math.pi / 2.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            angle_between(np.zeros(2), np.zeros(3))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e8, 1e8, allow_nan=False),
        st.floats(-1e8, 1e8, allow_nan=False),
    )
    def test_range(self, g1, g2):
        a = angle_between(np.array([g1]), np.array([g2]))[0]
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
        assert state.m[0] == pytest.approx(0.1, abs=1e-16)
        assert state.v[0] == pytest.approx(8.1e-4, abs=1e-18)
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
        a1 = angle_between(g1, np.zeros(1))
        a2 = angle_between(g2, g1)
        a3 = angle_between(g3, g2)
        assert a1[0] < 0.2 and a2[0] > 1.0 and a3[0] > 1.0
        for variant in ANGLE_VARIANTS:
            state, _ = run_steps(
                "angulargrad", [g1, g2, g3], [0.0], alpha=0.1, angle_variant=variant
            )
            pairwise = angular_coefficient(np.minimum(a2, a3), variant, 0.5, 0.5)
            running = angular_coefficient(a1, variant, 0.5, 0.5)
            assert np.array_equal(state.last_phi, pairwise)
            assert not np.array_equal(state.last_phi, running)

    def test_angulargrad_state_updates(self):
        state, _ = run_steps("angulargrad", [[0.5]], [0.0], alpha=0.1)
        assert state.prev_angle[0] == pytest.approx(ARCTAN_HALF, abs=1e-15)
        assert state.prev_grad[0] == 0.5
        assert state.last_phi is not None
        assert state.last_phi[0] == PHI_COS_MAX


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
        a_min = np.minimum(prev_angle, angle_between(g, prev_grad))
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
            fill(a).copy() for a in (m, v, prev_grad, prev_angle))
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
        state.v = np.full(shape, 0.25)
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
        assert state.prev_grad[0] == 0.7

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
            assert np.array_equal(vec, np.zeros(3))
        assert state.alpha_t == 1e-3
        assert state.last_phi is None

    def test_init_state_bad_dim(self):
        with pytest.raises(ValueError):
            init_state(OptimizerConfig(), 0)


class TestWrappers:
    def test_gc_example(self):
        out = gc_transform(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [-1.0, 0.0, 1.0])

    def test_gc_output_sums_to_zero(self):
        rng = make_rng(21)
        for _ in range(20):
            g = rng.normal(size=7)
            assert abs(gc_transform(g).sum()) < 1e-12

    def test_gc_scalar(self):
        assert np.array_equal(gc_transform(np.array([4.2])), [0.0])

    def test_gc_empty_rejected(self):
        with pytest.raises(ValueError):
            gc_transform(np.array([]))

    def test_hgd_example(self):
        out = hgd_adapt(0.1, np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0.01)
        assert out == pytest.approx(0.21, abs=1e-15)

    def test_hgd_zero_omega(self):
        assert hgd_adapt(0.1, np.ones(2), np.ones(2), 0.0) == 0.1

    def test_hgd_opposing_gradients_cut_rate(self):
        out = hgd_adapt(0.1, np.array([1.0]), np.array([-1.0]), 0.05)
        assert out == pytest.approx(0.05, abs=1e-15)

    def test_hgd_dim_mismatch(self):
        with pytest.raises(ValueError):
            hgd_adapt(0.1, np.zeros(2), np.zeros(3), 0.01)


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
        assert state.alpha_t == 0.1

    def test_hgd_adapts_before_second_step(self):
        state, traj = run_steps(
            "sgd", [[1.0], [2.0]], [0.0], alpha=0.1, hypergrad_omega=0.01
        )
        # alpha_2 = 0.1 + 0.01 * (2 * 1) = 0.12, applied to the second step
        assert state.alpha_t == pytest.approx(0.12, abs=1e-15)
        assert traj[2][0] == pytest.approx(traj[1][0] - 0.12 * 2.0, abs=1e-15)

    def test_hgd_composes_with_angulargrad(self):
        state, _ = run_steps(
            "angulargrad", [[1.0], [1.0]], [0.0], alpha=0.1, hypergrad_omega=0.01
        )
        assert state.alpha_t > 0.1


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

    @pytest.mark.parametrize("protocol, seeds, dim", [("rosenbrock", 1, 2), ("mlp", 5, 99)])
    def test_default_sets_step_at_full_width(self, protocol, seeds, dim):
        configs = default_config(protocol)["optimizers"].values()
        stack = ConfigStack(OptimizerConfig(**c) for c in configs for _ in range(seeds))
        runs = Runs(stack, np.zeros((len(stack.configs), dim)))
        for rows in (len(stack.configs), len(stack.configs) - 1):
            arrays = self.wide_arrays(runs)
            assert len(arrays) > 1
            assert all(a.shape == (rows, dim) for a in arrays)
            runs.drop({0: "dropped"}, 0)

    def test_lone_stack_holds_no_arrays(self):
        for rule in RULES:
            stack = OptimizerConfig(rule=rule, hypergrad_omega=0.1, gc_enabled=True).stack
            assert not any(isinstance(v, np.ndarray) for v in vars(stack).values())
