"""The stepping engine: nine update rules behind one contract, plus wrappers.

Rules: sgd, sgdm, rmsprop, adam, adamw, radam, diffgrad, adabelief, and
angulargrad with ``angle_variant`` cos or tan.  Gradient centralization,
decoupled weight decay and hypergradient learning-rate adaptation compose
with any rule through the ``step`` dispatcher.

All rules run through one kernel as rows of coefficients of one update:
m = m_decay * m + m_gain * g, v = v_decay * v + v_gain * d * d (d = g, or
g - m for AdaBelief) and theta -= alpha_t * scale * mhat / denom, where

    rule                m         v         bc1, bc2  mhat   denom   scale
    sgd, sgdm           gamma, 1  1, 0      1, 1      m      1       1
    rmsprop             1, 0      b2, 1-b2  1, 1      g      S       1
    adam(w), adabelief  b1, 1-b1  b2, 1-b2  B1, B2    m/bc1  S       1
    radam               b1, 1-b1  b2, 1-b2  B1, B2    m/bc1  S or 1  r_t or 1
    diffgrad            b1, 1-b1  b2, 1-b2  B1, B2    m/bc1  S       xi
    angulargrad         b1, 1-b1  b2, 1-b2  B1, B2    m/bc1  S       phi

m and v give (decay, gain); b1, b2 are ``beta1``, ``beta2`` (rmsprop's rho);
Bi = 1 - bi^t; S = sqrt(v / bc2) + eps.

* sgdm's m = gamma * m + g is the deep-learning frameworks' convention, not
  the damped form that scales g by (1 - gamma).  sgd is sgdm with gamma 0; it
  ignores ``momentum_gamma``.
* xi is diffGrad's sigmoid(|g_prev - g|), r_t RAdam's rectification and phi
  AngularGrad's coefficient.  While RAdam's variance is not yet rectifiable,
  scale and denominator are both 1.
* adamw is adam: the dispatcher's decoupled decay supplies its
  -alpha * lambda * theta term, with the shrinking sign.

The run axis: ``step`` advances R runs at once (an (R, D) stack and a
ConfigStack); a lone run (a vector and an OptimizerConfig) is the one-row
stack, whose state is (1, D).  A coefficient all rows share stays a plain
number; one that differs is an array at the stack's width, which ``Runs`` sets
to D, and the live rate of a stack is (R, D), so no step broadcasts an (R, 1)
column (numpy runs such an op as R short loops).  Each rule family's rows are
a selector (None, every row, a slice of adjacent rows as in the protocols'
optimizer-major stacks, or an index array), and its terms run on those rows
only, each element meeting the same ufuncs in the same order, so a row gets,
bit for bit, what its run gets alone.  Bias corrections and RAdam's r_t stay
Python floats per row: numpy's power differs from Python's in the last ulp.
``Runs`` holds the live rows of a stack for both training loops: a run that
fails drops out with its final params and its reason, and the others go on.
It skips ``step``'s checks and ``np.errstate``, which its callers hold.

State vectors start at zero, so the gradient "before the first step" is 0 and
the first angle compares against a zero previous angle.  The counter ``t``
starts at 0, so the bias-correction powers use t = 1 on the first step.  The
kernel reads its live learning rate from ``state.alpha_t``, so milestone
schedules and hypergradient adaptation apply uniformly.  A step that would
produce a non-finite parameter raises NonFiniteStepError carrying
(iteration, coordinate, rule); on a stack it names every failed row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from angular_optim.numerics import Vector, first_nonfinite

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
    """An update produced NaN/Inf; carries iteration, coordinate, and rule.

    On a stack it is the first failed row's error; ``rows`` maps each failed
    row to its error and ``params`` holds the stepped stack.
    """

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

    @cached_property
    def stack(self) -> ConfigStack:
        """This config as a one-row ConfigStack, built once."""
        return ConfigStack((self,))


def _column(values, width: int):
    """One value per row: the plain value if every row agrees, else an
    (R, width) array whose row r holds values[r] throughout."""
    if all(v == values[0] for v in values):
        return values[0]
    return np.repeat(np.array(values).reshape(-1, 1), width, axis=1)


def _rows(flags):
    """The flagged rows' selector into a stack's (R, D) arrays: None,
    ``slice(None)`` for all (a lone run's one row too), a slice of adjacent
    rows (a contiguous view of a stack) or else an index array."""
    rows = [r for r, f in enumerate(flags) if f]
    if len(rows) in (0, len(flags)):
        return slice(None) if rows else None
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else np.array(rows)


def _at(value, rows):
    """A column's value on selected rows, or the plain number every row shares."""
    return value[rows] if isinstance(value, np.ndarray) else value


def _moment_coefficients(c: OptimizerConfig) -> tuple:
    """(decay, gain) of m = decay * m + gain * g, then of v = decay * v +
    gain * d * d; (1, 0) marks a slot the rule does not read."""
    if c.rule in ("sgd", "sgdm"):
        return (c.momentum_gamma if c.rule == "sgdm" else 0.0), 1.0, 1.0, 0.0
    m = (1.0, 0.0) if c.rule == "rmsprop" else (c.beta1, 1.0 - c.beta1)
    return *m, c.beta2, 1.0 - c.beta2


class ConfigStack:
    """R OptimizerConfigs, one per row of a stack of runs: hyperparameters as
    ``_column``s of the stack's ``width``, rule families as ``_rows`` selectors
    (RAdam's per beta2) and the angular rows' ``variant`` (angular_coefficient)."""

    def __init__(self, configs, width: int = 1):
        self.configs = cs = tuple(configs)
        if not cs:
            raise ValueError("need at least one run")
        self.width = width
        column = lambda values: _column(values, width)
        for name in ("epsilon", "lambda1", "lambda2"):
            setattr(self, name, column([getattr(c, name) for c in cs]))
        # the bias corrections apply to moment rows only, so the other rows take
        # the first moment row's betas and a stack of one Adam beta2 stays a number
        moment = next((c for c in cs if c.rule in MOMENT_RULES), cs[0])
        betas = [c if c.rule in MOMENT_RULES else moment for c in cs]
        self.beta1, self.beta2 = column([c.beta1 for c in betas]), column([c.beta2 for c in betas])
        coefficients = zip(*map(_moment_coefficients, cs))
        self.m_decay, self.m_gain, self.v_decay, self.v_gain = map(column, coefficients)
        self.omega = column([c.hypergrad_omega for c in cs])
        self.decay_lambda = column([c.weight_decay_lambda for c in cs])
        rules = [c.rule for c in cs]
        self.momentum = _rows([r in ("sgd", "sgdm") for r in rules])
        self.rmsprop = _rows([r == "rmsprop" for r in rules])
        for rule in ("diffgrad", "adabelief"):
            setattr(self, rule, _rows([r == rule for r in rules]))
        self.radam = tuple((b, _rows([c.rule == "radam" and c.beta2 == b for c in cs]))
                           for b in dict.fromkeys(c.beta2 for c in cs if c.rule == "radam"))
        self.angular = _rows([r == "angulargrad" for r in rules])
        variants = [c.angle_variant for c in cs if c.rule == "angulargrad"]
        self.variant = (tuple(_rows([v == w for v in variants]) for w in ANGLE_VARIANTS)
                        if len(set(variants)) > 1 else next(iter(variants), "cos"))
        self.gc = _rows([c.gc_enabled for c in cs])
        self.hgd = _rows([c.hypergrad_omega > 0.0 for c in cs])
        self.decay = _rows([c.weight_decay_lambda > 0.0 for c in cs])

    def rows(self, keep: np.ndarray) -> ConfigStack:
        """The configs of the rows a bool mask keeps."""
        return ConfigStack((c for c, k in zip(self.configs, keep) if k), self.width)


@dataclass
class OptimizerState:
    """Mutable per-run state; all vectors share the parameter dimension.

    * ``t``: steps taken so far.
    * ``m``: first moment, or the sgd/sgdm momentum accumulator; unused on
      rmsprop rows.
    * ``v``: second moment (AdaBelief: of g - m); unused on sgd and sgdm rows.
    * ``prev_grad``: the gradient of the previous step.
    * ``prev_angle``: AngularGrad's previous raw angle A_{t-1}; meaningful
      on angular rows only, the only rows a step writes or reads.
    * ``alpha_t``: the live learning rate.
    * ``last_phi``: the step-scale buffer the state owns, ones from ``init_state``,
      rewritten in place by each step on diffGrad, RAdam and angular rows; other
      rows keep 1.0, angular rows hold the phi the harness records.

    Every array slot is (R, D), (1, D) for a lone run, and ``alpha_t``
    repeats each row's rate across it.
    """

    t: int
    m: Vector
    v: Vector
    prev_grad: Vector
    prev_angle: Vector
    alpha_t: np.ndarray
    last_phi: Vector

    def rows(self, keep: np.ndarray) -> OptimizerState:
        """The state of the rows of a stack a bool mask keeps."""
        slots = vars(self).items()
        return OptimizerState(**{k: v[keep] if isinstance(v, np.ndarray) else v for k, v in slots})


def init_state(config: OptimizerConfig | ConfigStack, dim: int) -> OptimizerState:
    """Zeroed (R, dim) state for a ConfigStack of R, (1, dim) for one run; last_phi is ones."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    configs = (config,) if isinstance(config, OptimizerConfig) else config.configs
    alpha_t = np.array([[c.alpha] * dim for c in configs], float)
    z = lambda: np.zeros(alpha_t.shape, dtype=np.float64)
    return OptimizerState(t=0, m=z(), v=z(), prev_grad=z(), prev_angle=z(), alpha_t=alpha_t,
                          last_phi=np.ones(alpha_t.shape))


# ---------------------------------------------------------------------------
# Angular machinery


def _angle(gap: np.ndarray, g_t: np.ndarray, g_prev: np.ndarray) -> np.ndarray:
    """Elementwise angle between consecutive gradient slopes, in [0, pi/2]:
    A = arctan(|g_t - g_prev| / |1 + g_t * g_prev|) from ``gap`` = |g_t - g_prev|,
    the slope-difference identity per coordinate, for a caller that ignores
    divide errors.  A zero denominator is the perpendicular-slope limit: with
    finite slopes its gap is non-zero (g_t = g_prev would need g_t^2 = -1),
    and arctan(inf) is exactly pi/2."""
    return np.arctan(gap / np.abs(1.0 + g_t * g_prev))


def angular_coefficient(
    a_min: Vector, variant: str | tuple, lambda1: float, lambda2: float
) -> Vector:
    """phi[i] = tanh(|trig(a_min[i])|) * lambda1 + lambda2, trig = cos or tan.

    On a stack ``variant`` may be (cos rows, tan rows), two row selectors
    covering every row.  tan of the float closest to pi/2 is ~1.6e16, which
    tanh saturates to exactly 1.0, so the perpendicular limit yields phi =
    lambda1 + lambda2 without any special casing.  Each step after the trig
    runs in place in one buffer, with the bits of the out-of-place expression.
    """
    a_min = np.asarray(a_min, dtype=np.float64)
    phi = np.empty(a_min.shape)
    if isinstance(variant, tuple):
        for fn, rows in zip((np.cos, np.tan), variant):
            phi[rows] = fn(a_min[rows])
    elif variant in ANGLE_VARIANTS:
        (np.cos if variant == "cos" else np.tan)(a_min, out=phi)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    np.tanh(np.abs(phi, out=phi), out=phi)
    phi *= lambda1
    phi += lambda2
    return phi


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


def _bias_correction(cfg: ConfigStack, beta, t: int):
    """1 - beta**t, in Python floats per row: numpy's power differs from
    Python's in the last ulp.  sgd, sgdm and rmsprop rows take none: the
    kernel writes their mhat and denom over what it gives them."""
    if isinstance(beta, np.ndarray):
        return _column([1.0 - b**t for b in beta[:, 0].tolist()], cfg.width)
    return 1.0 - beta**t


def _rule_kernel(state, cfg, params, grad):
    """Advance state by one step of each row's rule and return the new params,
    by the one formula of the module docstring with each row's coefficients."""
    t = state.t + 1
    m = cfg.m_decay * state.m + cfg.m_gain * grad
    d = grad
    if (rows := cfg.adabelief) is not None:
        d = grad.copy()
        d[rows] -= m[rows]
    v = cfg.v_decay * state.v + cfg.v_gain * d * d
    mhat = m / _bias_correction(cfg, cfg.beta1, t)
    denom = np.sqrt(v / _bias_correction(cfg, cfg.beta2, t))
    denom += cfg.epsilon
    if (rows := cfg.momentum) is not None:
        mhat[rows], denom[rows] = m[rows], 1.0
    if (rows := cfg.rmsprop) is not None:
        # rmsprop's numerator is the raw gradient: 0 * m + g would turn -0.0 into 0.0
        mhat[rows], denom[rows] = grad[rows], np.sqrt(v[rows]) + _at(cfg.epsilon, rows)
    scale = state.last_phi  # rows outside every family keep 1.0
    if cfg.diffgrad is not None or cfg.angular is not None:
        gap = np.abs(grad - state.prev_grad)
    if (rows := cfg.diffgrad) is not None:  # xi = sigmoid(|g_t - g_{t-1}|)
        scale[rows] = 1.0 / (1.0 + np.exp(-gap[rows]))
    for beta2, rows in cfg.radam:  # rows not yet rectifiable step with scale = denom = 1
        if (r_t := radam_terms(t, beta2)[2]) is None:
            scale[rows] = denom[rows] = 1.0
        else:
            scale[rows] = r_t
    if (rows := cfg.angular) is not None:
        a_t = _angle(gap[rows], grad[rows], state.prev_grad[rows])
        scale[rows] = angular_coefficient(np.minimum(state.prev_angle[rows], a_t), cfg.variant,
                                          _at(cfg.lambda1, rows), _at(cfg.lambda2, rows))
        state.prev_angle[rows] = a_t
    state.t, state.m, state.v = t, m, v
    state.prev_grad = grad.copy()
    return params - state.alpha_t * scale * mhat / denom


# ---------------------------------------------------------------------------
# The dispatcher


def step(state: OptimizerState, config, params: Vector, grad: Vector) -> Vector:
    """One optimization step: GC, hypergradient adaptation, the kernel, guard.

    ``config`` is a ConfigStack for an (R, D) stack whose every row steps
    with its own config and state, or an OptimizerConfig for a parameter
    vector, which steps as the one-row stack.  GC subtracts each row's mean
    gradient, so the row sums to zero.  The hypergradient update alpha_t =
    alpha_{t-1} + omega * (g_t . g_{t-1}) adjusts state.alpha_t before the rule
    runs, so the adapted rate applies to the current step (the first step sees
    no change because the stored previous gradient is zero).  Decoupled weight
    decay composes with any rule: when weight_decay_lambda > 0 the step also
    shrinks theta by alpha_t * lambda * theta, which is all adamw adds to adam.
    """
    if isinstance(config, OptimizerConfig):
        return step(state, config.stack, np.asarray(params)[None], np.asarray(grad)[None])[0]
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape:
        raise ValueError("params/grad dim mismatch")
    if params.shape != state.m.shape:
        raise ValueError("state dim mismatch")
    # overflow here is an expected, handled condition: the guard turns any
    # non-finite result into NonFiniteStepError instead of a warning (a
    # perpendicular angle divides by zero on purpose)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _stacked_step(state, config, params, grad)


def _stacked_step(state, config, params, grad):
    """``step`` on a checked (R, D) stack, for a caller that holds the errstate."""
    if (rows := config.gc) is not None:
        grad = grad.copy()
        grad[rows] -= np.mean(grad[rows], axis=-1, keepdims=True)
    if (rows := config.hgd) is not None:
        dot = np.vecdot(grad[rows], state.prev_grad[rows])
        state.alpha_t[rows] = state.alpha_t[rows] + _at(config.omega, rows) * dot[:, None]
    new = _rule_kernel(state, config, params, grad)
    if (rows := config.decay) is not None:
        new[rows] -= state.alpha_t[rows] * _at(config.decay_lambda, rows) * params[rows]
    # a finite sum needs every entry finite; only a sum that overflows or
    # meets a NaN or Inf pays for the entrywise check
    if math.isfinite(np.add.reduce(new, axis=None)) or np.isfinite(new).all():
        return new
    bad = enumerate(map(first_nonfinite, new.reshape(-1, new.shape[-1])))
    rules = [c.rule for c in config.configs]
    errors = {r: NonFiniteStepError(state.t, i, rules[r]) for r, i in bad if i is not None}
    err = next(iter(errors.values()))
    err.rows, err.params = errors, new
    raise err


# ---------------------------------------------------------------------------
# A stack of runs


def nonfinite_rows(values, reason) -> dict:
    """Map each row of a stack whose ``values`` hold a NaN or Inf to ``reason``."""
    ok = np.isfinite(values)
    if np.count_nonzero(ok) == ok.size:  # every entry finite, cheaper than ok.all()
        return {}
    return dict.fromkeys(np.flatnonzero(~ok.reshape(len(ok), -1).all(axis=1)).tolist(), reason)


class Runs:
    """The live rows of a stack of runs (``params``, ``state``, ``configs``,
    and ``live``, the run behind each row) and each run's ``final`` params,
    ``steps`` taken and ``reasons`` it stopped (None while it is ok)."""

    def __init__(self, configs: ConfigStack, params: np.ndarray):
        # the stack meets its width here: its columns become (R, D) arrays
        self.params, self.configs = params, ConfigStack(configs.configs, params.shape[1])
        self.state = init_state(self.configs, params.shape[1])
        self.live = np.arange(len(params))
        self.final = np.empty_like(params)
        self.steps = np.zeros(len(params), dtype=np.int64)
        self.reasons = [None] * len(params)

    def drop(self, failed: dict, steps: int) -> np.ndarray:
        """Stop the rows ``failed`` maps to a reason, at their params and after
        ``steps`` steps; returns the bool mask of the kept rows."""
        for row, reason in failed.items():
            run = self.live[row]
            self.final[run], self.steps[run], self.reasons[run] = self.params[row], steps, reason
        keep = np.ones(self.live.size, dtype=bool)
        keep[list(failed)] = False
        self.params, self.live = self.params[keep], self.live[keep]
        if self.live.size:
            self.state, self.configs = self.state.rows(keep), self.configs.rows(keep)
        return keep

    def step(self, grad: np.ndarray, failed: dict) -> np.ndarray:
        """``step`` the live rows and return the kept rows' new params (the
        caller stores them).  The rows ``failed`` maps to a reason (it wins over
        a failed step, which wins over a rate), the rows whose step fails and
        the HGD rows whose adapted rate is not positive (their step would ascend)
        drop out at their old params."""
        try:
            new = _stacked_step(self.state, self.configs, self.params, grad)
        except NonFiniteStepError as err:
            new, failed = err.params, {**err.rows, **failed}
        if (hgd := self.configs.hgd) is not None:
            # alpha_t holds one rate per row, repeated across it
            ascent = np.arange(len(self.live))[hgd][self.state.alpha_t[hgd, 0] <= 0.0].tolist()
            reason = f"non-positive learning rate at iteration {self.state.t}"
            failed = {**dict.fromkeys(ascent, reason), **failed}
        if failed:  # the step just taken does not count for them
            new = new[self.drop(failed, self.state.t - 1)]
        return new

    def finish(self) -> None:
        """Record the live rows' params and steps as their runs' final ones."""
        self.final[self.live], self.steps[self.live] = self.params, self.state.t

    @property
    def status(self) -> list[str]:
        """Each run's status text: ok, or why it aborted."""
        return ["ok" if r is None else f"aborted: {r}" for r in self.reasons]
