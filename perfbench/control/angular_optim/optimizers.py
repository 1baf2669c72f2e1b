"""The stepping engine: ten update rules behind one contract, plus wrappers.

Rules: sgd, sgdm, rmsprop, adam, adamw, radam, diffgrad, adabelief, and
angulargrad with ``angle_variant`` cos or tan.  Gradient centralization and
hypergradient learning-rate adaptation compose with any rule through the
``step`` dispatcher.

Conventions that every rule shares:

* State vectors (moments, previous gradient, previous angle) start at zero,
  so the gradient "before the first step" is 0 and the first angle compares
  against a zero previous angle.
* The iteration counter ``t`` starts at 0 and the bias-correction powers use
  t = 1 for the first step.
* Epsilon is added outside the square root: step = alpha * mhat / (sqrt(vhat) + eps).
* Each rule reads its live learning rate from ``state.alpha_t`` so milestone
  schedules and hypergradient adaptation apply uniformly.
* A step that would produce a non-finite parameter raises NonFiniteStepError
  carrying (iteration, coordinate, rule).

Two deliberate conventions deserve a note because more than one appears in
the literature:

* sgdm uses the accumulator form buf = gamma * buf + g; theta -= alpha * buf
  (the convention of the major deep-learning frameworks), not the damped
  form that scales the fresh gradient by (1 - gamma).
* adamw applies decoupled decay with the shrinking sign,
  theta <- theta - alpha * mhat / (sqrt(vhat) + eps) - alpha * lambda * theta.
* radam falls back to a bias-corrected momentum step (theta -= alpha * mhat)
  while the variance estimate is not yet rectifiable, and its rectified
  branch divides by sqrt(vhat) + eps like the rest of the Adam family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from angular_optim.numerics import Vector, first_nonfinite, mean

RULES = (
    "sgd",
    "sgdm",
    "rmsprop",
    "adam",
    "adamw",
    "radam",
    "diffgrad",
    "adabelief",
    "angulargrad",
)

# Rules that run Adam-style first/second moment estimates and therefore must
# satisfy the beta1^2 / sqrt(beta2) < 1 contraction condition.
MOMENT_RULES = ("adam", "adamw", "radam", "diffgrad", "adabelief", "angulargrad")

ANGLE_VARIANTS = ("cos", "tan")


class NonFiniteStepError(RuntimeError):
    """An update produced NaN/Inf; carries iteration, coordinate, and rule."""

    def __init__(self, iteration: int, coordinate: int, rule: str):
        self.iteration = iteration
        self.coordinate = coordinate
        self.rule = rule
        super().__init__(
            f"non-finite parameter at iteration {iteration}, "
            f"coordinate {coordinate}, rule {rule}"
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Immutable hyperparameters for one optimizer instance.

    ``beta2`` doubles as RMSprop's smoothing constant rho.  ``lambda1`` and
    ``lambda2`` weight the angular coefficient phi = tanh(|trig|)*lambda1 + lambda2;
    both default to 0.5 which bounds phi in [0.5, 1].
    """

    rule: str = "adam"
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    momentum_gamma: float = 0.9
    weight_decay_lambda: float = 0.0
    lambda1: float = 0.5
    lambda2: float = 0.5
    hypergrad_omega: float = 0.0
    angle_variant: str = "cos"
    gc_enabled: bool = False

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.angle_variant not in ANGLE_VARIANTS:
            raise ValueError(f"angle_variant must be one of {ANGLE_VARIANTS}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must lie in [0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.momentum_gamma < 1.0:
            raise ValueError("momentum_gamma must lie in [0, 1)")
        if self.weight_decay_lambda < 0:
            raise ValueError("weight_decay_lambda must be >= 0")
        if self.hypergrad_omega < 0:
            raise ValueError("hypergrad_omega must be >= 0")
        if self.rule in MOMENT_RULES:
            if self.beta2 > 0 and self.beta1**2 / math.sqrt(self.beta2) >= 1.0:
                raise ValueError("beta1^2 / sqrt(beta2) must be < 1 for moment rules")


@dataclass
class OptimizerState:
    """Mutable per-run state; all vectors share the parameter dimension.

    ``last_phi`` is a diagnostic slot: angulargrad_step records the phi
    vector it applied so the harness can log its mean per iteration.
    """

    t: int
    m: Vector
    v: Vector
    s: Vector
    prev_grad: Vector
    prev_angle: Vector
    alpha_t: float
    momentum_buf: Vector
    last_phi: Vector | None = field(default=None)


def init_state(config: OptimizerConfig, dim: int) -> OptimizerState:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = lambda: np.zeros(dim, dtype=np.float64)
    return OptimizerState(
        t=0,
        m=z(),
        v=z(),
        s=z(),
        prev_grad=z(),
        prev_angle=z(),
        alpha_t=config.alpha,
        momentum_buf=z(),
    )


# ---------------------------------------------------------------------------
# Angular machinery


def angle_between(g_t: Vector, g_prev: Vector) -> Vector:
    """Elementwise angle between consecutive gradient slopes, in [0, pi/2].

    A[i] = arctan(|g_t[i] - g_prev[i]| / |1 + g_t[i] * g_prev[i]|), the
    slope-difference identity applied per coordinate.  A zero denominator is
    the perpendicular-slope limit and maps to pi/2.
    """
    g_t = np.asarray(g_t, dtype=np.float64)
    g_prev = np.asarray(g_prev, dtype=np.float64)
    if g_t.shape != g_prev.shape:
        raise ValueError("dim mismatch")
    num = np.abs(g_t - g_prev)
    den = np.abs(1.0 + g_t * g_prev)
    zero = den == 0.0
    ratio = num / np.where(zero, 1.0, den)
    return np.where(zero, np.pi / 2.0, np.arctan(ratio))


def angular_coefficient(
    a_min: Vector, variant: str, lambda1: float, lambda2: float
) -> Vector:
    """phi[i] = tanh(|trig(a_min[i])|) * lambda1 + lambda2, trig = cos or tan.

    tan of the float closest to pi/2 is ~1.6e16, which tanh saturates to
    exactly 1.0, so the perpendicular limit yields phi = lambda1 + lambda2
    without any special casing.
    """
    a_min = np.asarray(a_min, dtype=np.float64)
    if variant == "cos":
        trig = np.cos(a_min)
    elif variant == "tan":
        trig = np.tan(a_min)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return np.tanh(np.abs(trig)) * lambda1 + lambda2


# ---------------------------------------------------------------------------
# Update rules.  Each advances state.t, refreshes the moment estimates it
# owns, stores prev_grad, and returns the new parameter vector.


def _bias_corrected_moments(state, config, grad):
    t = state.t + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    v = config.beta2 * state.v + (1.0 - config.beta2) * grad * grad
    mhat = m / (1.0 - config.beta1**t)
    vhat = v / (1.0 - config.beta2**t)
    return t, m, v, mhat, vhat


def _commit(state, t, grad, m=None, v=None, s=None):
    state.t = t
    if m is not None:
        state.m = m
    if v is not None:
        state.v = v
    if s is not None:
        state.s = s
    state.prev_grad = np.array(grad, dtype=np.float64, copy=True)


def sgd_step(state, config, params, grad):
    """Plain descent: theta -= alpha * g."""
    new = params - state.alpha_t * grad
    _commit(state, state.t + 1, grad)
    return new


def sgdm_step(state, config, params, grad):
    """Accumulator momentum: buf = gamma * buf + g; theta -= alpha * buf."""
    buf = config.momentum_gamma * state.momentum_buf + grad
    new = params - state.alpha_t * buf
    _commit(state, state.t + 1, grad)
    state.momentum_buf = buf
    return new


def rmsprop_step(state, config, params, grad):
    """v = rho * v + (1-rho) g^2; theta -= alpha * g / (sqrt(v) + eps).

    The smoothing constant rho is read from config.beta2; no bias correction.
    """
    rho = config.beta2
    v = rho * state.v + (1.0 - rho) * grad * grad
    new = params - state.alpha_t * grad / (np.sqrt(v) + config.epsilon)
    _commit(state, state.t + 1, grad, v=v)
    return new


def adam_step(state, config, params, grad):
    """Adam with bias correction: theta -= alpha * mhat / (sqrt(vhat) + eps)."""
    t, m, v, mhat, vhat = _bias_corrected_moments(state, config, grad)
    new = params - state.alpha_t * mhat / (np.sqrt(vhat) + config.epsilon)
    _commit(state, t, grad, m=m, v=v)
    return new


def adamw_step(state, config, params, grad):
    """Adam plus decoupled decay: an extra -alpha * lambda * theta term."""
    t, m, v, mhat, vhat = _bias_corrected_moments(state, config, grad)
    new = (
        params
        - state.alpha_t * mhat / (np.sqrt(vhat) + config.epsilon)
        - state.alpha_t * config.weight_decay_lambda * params
    )
    _commit(state, t, grad, m=m, v=v)
    return new


def radam_terms(t: int, beta2: float) -> tuple[float, float, float | None]:
    """(rho_inf, rho_t, r_t) for rectified Adam at step t >= 1.

    rho_inf = 2/(1-beta2) - 1; rho_t = rho_inf - 2 t beta2^t / (1 - beta2^t).
    r_t is the rectification factor when rho_t > 4, else None (the variance
    estimate is not yet considered rectifiable).
    """
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    rho_t = rho_inf - 2.0 * t * beta2**t / (1.0 - beta2**t)
    if rho_t > 4.0:
        r_t = math.sqrt(
            ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
        return rho_inf, rho_t, r_t
    return rho_inf, rho_t, None


def radam_step(state, config, params, grad):
    """Rectified Adam: adaptive step once the variance is rectifiable.

    While r_t is None the rule takes the momentum-only fallback
    theta -= alpha * mhat; afterwards alpha * r_t * mhat / (sqrt(vhat) + eps).
    """
    t, m, v, mhat, vhat = _bias_corrected_moments(state, config, grad)
    _, _, r_t = radam_terms(t, config.beta2)
    if r_t is not None:
        new = params - state.alpha_t * r_t * mhat / (np.sqrt(vhat) + config.epsilon)
    else:
        new = params - state.alpha_t * mhat
    _commit(state, t, grad, m=m, v=v)
    return new


def diffgrad_step(state, config, params, grad):
    """Friction-scaled Adam: xi = sigmoid(|g_prev - g|) multiplies the step."""
    xi = 1.0 / (1.0 + np.exp(-np.abs(state.prev_grad - grad)))
    t, m, v, mhat, vhat = _bias_corrected_moments(state, config, grad)
    new = params - state.alpha_t * xi * mhat / (np.sqrt(vhat) + config.epsilon)
    _commit(state, t, grad, m=m, v=v)
    return new


def adabelief_step(state, config, params, grad):
    """Belief-tracking Adam: s = beta2 * s + (1-beta2)(g - m_t)^2, both corrected."""
    t = state.t + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    resid = grad - m
    s = config.beta2 * state.s + (1.0 - config.beta2) * resid * resid
    mhat = m / (1.0 - config.beta1**t)
    shat = s / (1.0 - config.beta2**t)
    new = params - state.alpha_t * mhat / (np.sqrt(shat) + config.epsilon)
    _commit(state, t, grad, m=m, s=s)
    return new


def angulargrad_step(state, config, params, grad, phi_override: float | None = None):
    """Adam step scaled by the angular coefficient phi.

    A_t compares the incoming gradient against the previous one elementwise;
    A_min = min(previous angle, A_t) picks the flatter of the two consecutive
    angles; phi = tanh(|cos or tan of A_min|) * lambda1 + lambda2 multiplies
    the bias-corrected Adam step.  State keeps A_t as the next prev_angle.

    ``phi_override`` is a test hook: a scalar that replaces the computed phi
    vector (1.0 reduces the rule to adam_step exactly).
    """
    a_t = angle_between(grad, state.prev_grad)
    a_min = np.minimum(state.prev_angle, a_t)
    if phi_override is None:
        phi = angular_coefficient(
            a_min, config.angle_variant, config.lambda1, config.lambda2
        )
    else:
        phi = np.full(params.shape, float(phi_override))
    t, m, v, mhat, vhat = _bias_corrected_moments(state, config, grad)
    new = params - state.alpha_t * phi * mhat / (np.sqrt(vhat) + config.epsilon)
    _commit(state, t, grad, m=m, v=v)
    state.prev_angle = a_t
    state.last_phi = phi
    return new


# ---------------------------------------------------------------------------
# Wrappers and dispatcher


def gc_transform(grad: Vector) -> Vector:
    """Centralize: subtract the gradient's mean so the output sums to zero."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.size == 0:
        raise ValueError("empty gradient")
    return grad - mean(grad)


def hgd_adapt(alpha_prev: float, grad_t: Vector, grad_tm1: Vector, omega: float) -> float:
    """Hypergradient rate update: alpha_t = alpha_{t-1} + omega * (g_t . g_{t-1})."""
    grad_t = np.asarray(grad_t, dtype=np.float64)
    grad_tm1 = np.asarray(grad_tm1, dtype=np.float64)
    if grad_t.shape != grad_tm1.shape:
        raise ValueError("dim mismatch")
    return float(alpha_prev + omega * np.dot(grad_t, grad_tm1))


_RULE_TABLE = {
    "sgd": sgd_step,
    "sgdm": sgdm_step,
    "rmsprop": rmsprop_step,
    "adam": adam_step,
    "adamw": adamw_step,
    "radam": radam_step,
    "diffgrad": diffgrad_step,
    "adabelief": adabelief_step,
    "angulargrad": angulargrad_step,
}


def step(state: OptimizerState, config: OptimizerConfig, params: Vector, grad: Vector) -> Vector:
    """One optimization step: GC, hypergradient adaptation, rule dispatch, guard.

    The hypergradient update adjusts state.alpha_t before the rule runs, so
    the adapted rate applies to the current step (the first step sees no
    change because the stored previous gradient is zero).  Decoupled weight
    decay composes with any rule; adamw folds its own decay term, every other
    rule gets the same shrink applied here when weight_decay_lambda > 0.
    """
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape:
        raise ValueError("params/grad dim mismatch")
    if params.size != state.m.size:
        raise ValueError("state dim mismatch")
    if config.gc_enabled:
        grad = gc_transform(grad)
    if config.hypergrad_omega > 0.0:
        state.alpha_t = hgd_adapt(
            state.alpha_t, grad, state.prev_grad, config.hypergrad_omega
        )
    # overflow here is an expected, handled condition: the guard below turns
    # any non-finite result into NonFiniteStepError instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        new = _RULE_TABLE[config.rule](state, config, params, grad)
        if config.weight_decay_lambda > 0.0 and config.rule != "adamw":
            new = new - state.alpha_t * config.weight_decay_lambda * params
    bad = first_nonfinite(new)
    if bad is not None:
        raise NonFiniteStepError(iteration=state.t, coordinate=bad, rule=config.rule)
    return new
