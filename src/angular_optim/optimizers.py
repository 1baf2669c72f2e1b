"""The stepping engine: nine update rules behind one contract, plus wrappers.

Rules: sgd, sgdm, rmsprop, adam, adamw, radam, diffgrad, adabelief, and
angulargrad with ``angle_variant`` cos or tan.  Gradient centralization,
decoupled weight decay and hypergradient learning-rate adaptation compose
with any rule through the ``step`` dispatcher.

All rules run through one kernel:

* sgdm keeps the accumulator m = gamma * m + g and steps theta -= alpha * m
  (the convention of the major deep-learning frameworks, not the damped form
  that scales the fresh gradient by (1 - gamma)).  sgd is sgdm with gamma 0;
  it ignores ``momentum_gamma``.
* rmsprop steps theta -= alpha * g / (sqrt(v) + eps), with v smoothed by
  rho = ``beta2`` and no bias correction.
* Every other rule is Adam with bias correction and one per-coordinate scale:
  theta -= alpha * scale * mhat / (sqrt(v / (1 - beta2^t)) + eps), where
  scale is 1 (adam, adamw, adabelief), diffGrad's xi = sigmoid(|g_prev - g|),
  RAdam's r_t, or AngularGrad's phi.  AdaBelief feeds v with (g - m)^2
  instead of g^2.  While RAdam's variance is not yet rectifiable, scale and
  denominator are both 1, a bias-corrected momentum step theta -= alpha * mhat.
* adamw is adam: the dispatcher's decoupled decay supplies its
  -alpha * lambda * theta term, with the shrinking sign.

State vectors start at zero, so the gradient "before the first step" is 0 and
the first angle compares against a zero previous angle.  The counter ``t``
starts at 0, so the bias-correction powers use t = 1 on the first step.  The
kernel reads its live learning rate from ``state.alpha_t``, so milestone
schedules and hypergradient adaptation apply uniformly.  A step that would
produce a non-finite parameter raises NonFiniteStepError carrying
(iteration, coordinate, rule).
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

    * ``t``: steps taken so far.
    * ``m``: first moment, or the sgd/sgdm momentum accumulator.
    * ``v``: second moment (AdaBelief: of g - m; RMSprop: uncorrected).
    * ``prev_grad``: the gradient of the previous step.
    * ``prev_angle``: AngularGrad's previous raw angle A_{t-1}.
    * ``alpha_t``: the live learning rate.
    * ``last_phi``: a diagnostic slot holding the phi vector AngularGrad
      applied, so the harness can log its mean per iteration.
    """

    t: int
    m: Vector
    v: Vector
    prev_grad: Vector
    prev_angle: Vector
    alpha_t: float
    last_phi: Vector | None = field(default=None)


def init_state(config: OptimizerConfig, dim: int) -> OptimizerState:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = lambda: np.zeros(dim, dtype=np.float64)
    return OptimizerState(
        t=0,
        m=z(),
        v=z(),
        prev_grad=z(),
        prev_angle=z(),
        alpha_t=config.alpha,
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
# The rule kernel


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


def _rule_kernel(state, config, params, grad):
    """Advance state by one step of ``config.rule`` and return the new params.

    The forms of the rules are listed in the module docstring.
    """
    rule = config.rule
    t = state.t + 1
    m, v = state.m, state.v
    if rule in ("sgd", "sgdm"):
        gamma = config.momentum_gamma if rule == "sgdm" else 0.0
        m = gamma * m + grad
        new = params - state.alpha_t * m
    elif rule == "rmsprop":
        v = config.beta2 * v + (1.0 - config.beta2) * grad * grad
        new = params - state.alpha_t * grad / (np.sqrt(v) + config.epsilon)
    else:
        m = config.beta1 * m + (1.0 - config.beta1) * grad
        d = grad - m if rule == "adabelief" else grad
        v = config.beta2 * v + (1.0 - config.beta2) * d * d
        mhat = m / (1.0 - config.beta1**t)
        denom = np.sqrt(v / (1.0 - config.beta2**t)) + config.epsilon
        scale = 1.0
        if rule == "diffgrad":
            scale = 1.0 / (1.0 + np.exp(-np.abs(state.prev_grad - grad)))
        elif rule == "radam":
            r_t = radam_terms(t, config.beta2)[2]
            if r_t is None:
                scale = denom = 1.0
            else:
                scale = r_t
        elif rule == "angulargrad":
            a_t = angle_between(grad, state.prev_grad)
            scale = angular_coefficient(
                np.minimum(state.prev_angle, a_t),
                config.angle_variant, config.lambda1, config.lambda2,
            )
            state.prev_angle = a_t
            state.last_phi = scale
        new = params - state.alpha_t * scale * mhat / denom
    state.t, state.m, state.v = t, m, v
    state.prev_grad = np.array(grad, dtype=np.float64, copy=True)
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


# One kernel serves every rule; the per-rule table stays so that tracing
# tools (perfbench/spans.py) can wrap and time each rule separately.
_RULE_TABLE = {rule: _rule_kernel for rule in RULES}


def step(state: OptimizerState, config: OptimizerConfig, params: Vector, grad: Vector) -> Vector:
    """One optimization step: GC, hypergradient adaptation, rule dispatch, guard.

    The hypergradient update adjusts state.alpha_t before the rule runs, so
    the adapted rate applies to the current step (the first step sees no
    change because the stored previous gradient is zero).  Decoupled weight
    decay composes with any rule: when weight_decay_lambda > 0 the step also
    shrinks theta by alpha_t * lambda * theta, which is all adamw adds to adam.
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
        if config.weight_decay_lambda > 0.0:
            new = new - state.alpha_t * config.weight_decay_lambda * params
    bad = first_nonfinite(new)
    if bad is not None:
        raise NonFiniteStepError(iteration=state.t, coordinate=bad, rule=config.rule)
    return new
