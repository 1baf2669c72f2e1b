"""Experiment execution: deterministic runs, regret tracking, aggregation, IO.

A run is a pure function of its ExperimentSpec: optimizer/seed pairs execute
independently (optionally on a thread pool, capped by ANGULAR_OPTIM_THREADS)
and merge by key, so parallelism never changes a single output byte.  CSV
floats are written with shortest round-trip formatting and files are written
atomically (temp file, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from angular_optim.numerics import Vector, fmt_float, make_rng
from angular_optim.objectives import Objective, get_objective
from angular_optim.optimizers import (
    NonFiniteStepError,
    OptimizerConfig,
    init_state,
    step,
)

# Loss threshold used for iterations-to-threshold on the 1-D functions; the
# Rosenbrock runs instead use distance <= 0.1 to the known minimum.
LOSS_THRESHOLD_1D = 1e-3
ROSENBROCK_DIST_THRESHOLD = 0.1


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment.

    ``theta0`` is either an explicit start vector or an init-rule mapping
    {"rule": "uniform", "low": a, "high": b, "dim": n} drawn per seed.
    ``lr_milestones`` lists (iteration, divisor) pairs; at each named
    iteration the live learning rate is divided once, before that step.
    """

    task: str
    optimizers: tuple[tuple[str, OptimizerConfig], ...]
    iterations: int
    seeds: tuple[int, ...]
    theta0: object
    record_params: bool = False
    lr_milestones: tuple[tuple[int, float], ...] = ()
    dim: int | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.optimizers:
            raise ValueError("need at least one optimizer")
        if not self.seeds:
            raise ValueError("need at least one seed")
        names = [name for name, _ in self.optimizers]
        if len(set(names)) != len(names):
            raise ValueError("optimizer names must be unique")


@dataclass
class Trajectory:
    """Per-iteration log of one (optimizer, seed) run.

    Row t records the state after step t: the loss at the updated parameters,
    the live learning rate that produced the step, the mean angular
    coefficient (1.0 for rules that have none), and the step 2-norm.  If the
    run aborts on a non-finite step, rows stop early and ``status`` says why.
    """

    t: np.ndarray
    loss: np.ndarray
    alpha: np.ndarray
    phi_mean: np.ndarray
    step_norm: np.ndarray
    thetas: np.ndarray | None
    final_params: Vector
    status: str = "ok"

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass
class RegretRecord:
    """Cumulative regret R(t) and its running average against a fixed theta*."""

    t: np.ndarray
    cumulative: np.ndarray
    average: np.ndarray
    theta_star: Vector
    theta_star_source: str  # "known_minimum" or "best_found"


def resolve_threads(env: dict | None = None) -> int:
    """Worker count from ANGULAR_OPTIM_THREADS: 0 means auto, unset means 1."""
    env = os.environ if env is None else env
    raw = env.get("ANGULAR_OPTIM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"ANGULAR_OPTIM_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("ANGULAR_OPTIM_THREADS must be >= 0")
    if n == 0:
        return os.cpu_count() or 1
    return n


def resolve_theta0(theta0, dim: int, rng: np.random.Generator) -> Vector:
    if isinstance(theta0, dict):
        if theta0.get("rule") != "uniform":
            raise ValueError(f"unknown init rule {theta0!r}")
        n = int(theta0.get("dim", dim))
        return rng.uniform(float(theta0["low"]), float(theta0["high"]), size=n)
    arr = np.array(theta0, dtype=np.float64, copy=True).reshape(-1)
    return arr


def _objective_for(spec: ExperimentSpec) -> Objective:
    return get_objective(spec.task, dim=spec.dim)


def single_run(
    objective: Objective,
    config: OptimizerConfig,
    theta0: Vector,
    iterations: int,
    lr_milestones: tuple[tuple[int, float], ...] = (),
    record_params: bool = False,
) -> Trajectory:
    """Run one optimizer on one objective from one start; never raises on
    divergence, the abort is recorded in the trajectory status instead."""
    params = np.array(theta0, dtype=np.float64, copy=True)
    state = init_state(config, params.size)
    milestones = dict(lr_milestones)
    ts, losses, alphas, phis, norms = [], [], [], [], []
    thetas = [] if record_params else None
    status = "ok"
    for i in range(1, iterations + 1):
        if i in milestones:
            state.alpha_t /= milestones[i]
        # divergence is handled (abort status), so evaluation overflow on an
        # exploding trajectory must not warn
        with np.errstate(over="ignore", invalid="ignore"):
            grad = objective.grad(params)
        if not np.all(np.isfinite(grad)):
            status = f"aborted: non-finite gradient at iteration {i}"
            break
        try:
            new = step(state, config, params, grad)
        except NonFiniteStepError as err:
            status = f"aborted: {err}"
            break
        with np.errstate(over="ignore", invalid="ignore"):
            d = new - params
            norm = float(np.sqrt(np.dot(d, d)))
            params = new
            loss = objective.eval(params)
        ts.append(i)
        losses.append(loss)
        alphas.append(state.alpha_t)
        phis.append(float(np.mean(state.last_phi)) if state.last_phi is not None else 1.0)
        norms.append(norm)
        if thetas is not None:
            thetas.append(params.copy())
        if not np.isfinite(loss):
            status = f"aborted: non-finite loss at iteration {i}"
            break
    return Trajectory(
        t=np.array(ts, dtype=np.int64),
        loss=np.array(losses, dtype=np.float64),
        alpha=np.array(alphas, dtype=np.float64),
        phi_mean=np.array(phis, dtype=np.float64),
        step_norm=np.array(norms, dtype=np.float64),
        thetas=(
            np.array(thetas, dtype=np.float64).reshape(len(ts), params.size)
            if thetas is not None
            else None
        ),
        final_params=params.copy(),
        status=status,
    )


def run_experiment(
    spec: ExperimentSpec, threads: int | None = None
) -> dict[str, list[Trajectory]]:
    """All (optimizer, seed) runs of a spec, merged deterministically by key."""
    objective = _objective_for(spec)
    if threads is None:
        threads = resolve_threads()

    def job(name_config_seed):
        name, config, seed = name_config_seed
        theta0 = resolve_theta0(spec.theta0, objective.dim, make_rng(seed))
        return single_run(
            objective,
            config,
            theta0,
            spec.iterations,
            spec.lr_milestones,
            spec.record_params,
        )

    jobs = [
        (name, config, seed)
        for name, config in spec.optimizers
        for seed in spec.seeds
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, jobs))
    else:
        results = [job(j) for j in jobs]
    out: dict[str, list[Trajectory]] = {name: [] for name, _ in spec.optimizers}
    for (name, _config, _seed), traj in zip(jobs, results):
        out[name].append(traj)
    return out


# ---------------------------------------------------------------------------
# Analysis


def compute_regret(
    trajectory: Trajectory, objective: Objective, theta_star: Vector | None = None
) -> RegretRecord:
    """R(T) = sum_t [f(theta_t) - f(theta*)] from the trajectory's losses.

    theta* defaults to the objective's first known minimum; passing one
    explicitly records it as best-found.
    """
    if theta_star is None:
        if not objective.known_minima:
            raise ValueError("objective has no known minimum; pass theta_star")
        loc, _ = objective.known_minima[0]
        theta_star = np.array(loc, dtype=np.float64)
        source = "known_minimum"
    else:
        theta_star = np.array(theta_star, dtype=np.float64).reshape(-1)
        source = "best_found"
    if theta_star.size != objective.dim:
        raise ValueError("theta_star dim mismatch")
    f_star = objective.eval(theta_star)
    excess = trajectory.loss - f_star
    cumulative = np.cumsum(excess)
    average = cumulative / trajectory.t
    return RegretRecord(
        t=trajectory.t.copy(),
        cumulative=cumulative,
        average=average,
        theta_star=theta_star,
        theta_star_source=source,
    )


def grid_eval(objective: Objective, x_range, y_range, resolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Function values on a 2-D grid; Z[i, j] = f(xs[j], ys[i])."""
    if objective.dim != 2:
        raise ValueError("grid_eval needs a 2-D objective")
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    xs = np.linspace(float(x_range[0]), float(x_range[1]), nx)
    ys = np.linspace(float(y_range[0]), float(y_range[1]), ny)
    Z = np.empty((ny, nx), dtype=np.float64)
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            Z[i, j] = objective.eval(np.array([x, y]))
    return xs, ys, Z


def tail_oscillation(trajectory: Trajectory, window: int) -> float:
    """Population standard deviation over the last ``window`` iterations.

    Uses the scalar parameter when snapshots exist in one dimension, the loss
    otherwise.  Population (not sample) normalization, so a tail alternating
    between two points +-d around a center measures exactly d.
    """
    n = len(trajectory)
    if window < 1 or window > n:
        raise ValueError(f"window must lie in [1, {n}]")
    if trajectory.thetas is not None and trajectory.thetas.shape[1] == 1:
        series = trajectory.thetas[-window:, 0]
    else:
        series = trajectory.loss[-window:]
    return float(np.std(series))


def iterations_to_threshold(values: np.ndarray, threshold: float, budget: int) -> int:
    """First iteration (1-based) at which values <= threshold; budget+1 if never."""
    hit = np.nonzero(values <= threshold)[0]
    if hit.size == 0:
        return budget + 1
    return int(hit[0]) + 1


def aggregate(
    runs: dict[str, list[Trajectory]],
    iterations: int,
    threshold_fn=None,
) -> dict[str, dict]:
    """Per-optimizer summary across seeds.

    ``threshold_fn`` maps a trajectory to the per-iteration series compared
    against its threshold, returning (series, threshold); the default uses
    loss against LOSS_THRESHOLD_1D.  Mean/std are over final losses across
    seeds, sample (n-1) normalization, 0.0 for a single seed.
    """
    if threshold_fn is None:
        threshold_fn = lambda traj: (traj.loss, LOSS_THRESHOLD_1D)
    summary = {}
    for name, trajs in runs.items():
        finals = [float(t.loss[-1]) if len(t) else float("nan") for t in trajs]
        bests = [float(np.min(t.loss)) if len(t) else float("nan") for t in trajs]
        iters = []
        for traj in trajs:
            series, threshold = threshold_fn(traj)
            iters.append(iterations_to_threshold(series, threshold, iterations))
        mean = float(np.mean(finals))
        std = 0.0 if len(finals) < 2 else float(np.std(finals, ddof=1))
        summary[name] = {
            "final_loss": finals,
            "best_loss": bests,
            "iters_to_threshold": iters,
            "mean": mean,
            "std": std,
            "status": [t.status for t in trajs],
        }
    return summary


# ---------------------------------------------------------------------------
# Serialization


def trajectory_to_csv(trajectory: Trajectory, record_params: bool | None = None) -> str:
    """Header t,loss,alpha,phi_mean,step_norm[,theta_0..theta_{d-1}]."""
    if record_params is None:
        record_params = trajectory.thetas is not None
    cols = ["t", "loss", "alpha", "phi_mean", "step_norm"]
    if record_params:
        if trajectory.thetas is None:
            raise ValueError("trajectory has no parameter snapshots")
        d = trajectory.thetas.shape[1]
        cols += [f"theta_{i}" for i in range(d)]
    lines = [",".join(cols)]
    for i in range(len(trajectory)):
        row = [
            str(int(trajectory.t[i])),
            fmt_float(trajectory.loss[i]),
            fmt_float(trajectory.alpha[i]),
            fmt_float(trajectory.phi_mean[i]),
            fmt_float(trajectory.step_norm[i]),
        ]
        if record_params:
            row += [fmt_float(v) for v in trajectory.thetas[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def regret_to_csv(record: RegretRecord) -> str:
    lines = ["t,regret,avg_regret"]
    for i in range(record.t.size):
        lines.append(
            ",".join(
                [
                    str(int(record.t[i])),
                    fmt_float(record.cumulative[i]),
                    fmt_float(record.average[i]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def grid_to_csv(xs: np.ndarray, ys: np.ndarray, Z: np.ndarray) -> str:
    """x,y,f rows in row-major order (y outer, x inner)."""
    lines = ["x,y,f"]
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            lines.append(f"{fmt_float(x)},{fmt_float(y)},{fmt_float(Z[i, j])}")
    return "\n".join(lines) + "\n"


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename over."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
