"""Experiment execution: deterministic runs, regret tracking, aggregation, IO.

A run is a pure function of its ExperimentSpec.  Its (optimizer, seed) runs,
each from its own seeded start, are stacked as the rows of (R, D) arrays and
advanced together: each iteration makes one gradient, one step and one loss
call for all of them, and a run that aborts drops out of the stack through
``optimizers.Runs`` while the others go on.  Each row's trajectory is bit for
bit the one its run gives alone.  The results are keyed by optimizer name in
spec order.  CSV floats are written with shortest round-trip formatting, JSON
is strict (a non-finite float is null), and files are written atomically
(temp file, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from angular_optim.numerics import Vector, make_rng
from angular_optim.objectives import Objective, get_objective
from angular_optim.optimizers import ConfigStack, OptimizerConfig, Runs, nonfinite_rows

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
    iteration (>= 1; one past the budget never acts) the live learning rate is
    divided once, before that step, by a finite divisor > 0.
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
        if not all(0.0 < div < float("inf") for _, div in self.lr_milestones):
            raise ValueError("lr_milestones divisors must be finite and > 0")
        if not all(it >= 1 for it, _ in self.lr_milestones):
            raise ValueError("lr_milestones iterations must be >= 1")


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
    status: str = "ok"  # the status of the trajectory the record was computed from


def resolve_theta0(theta0, dim: int, rng: np.random.Generator) -> Vector:
    if isinstance(theta0, dict):
        if theta0.get("rule") != "uniform":
            raise ValueError(f"unknown init rule {theta0!r}")
        n = int(theta0.get("dim", dim))
        return rng.uniform(float(theta0["low"]), float(theta0["high"]), size=n)
    arr = np.array(theta0, dtype=np.float64, copy=True).reshape(-1)
    return arr


def single_run(
    objective: Objective,
    config: OptimizerConfig | ConfigStack,
    theta0: Vector,
    iterations: int,
    lr_milestones: tuple[tuple[int, float], ...] = (),
    record_params: bool = False,
) -> Trajectory | list[Trajectory]:
    """Run one optimizer from one start, or a stack of runs at once.

    An OptimizerConfig and a start vector give one Trajectory; a ConfigStack
    of R configs and an (R, D) array of starts give R of them, one per row (a
    lone run is the stack of one).  Never raises on divergence: a run whose
    gradient, parameters or loss turn non-finite stops, its status says why,
    and the other rows go on.

    The loop records only the loss, the rate, the stepped params and (with
    angular rows) the phi vectors; each run's step norms and phi means are
    taken from them after the loop.  The params are always kept for that, and
    ``record_params`` only decides whether the trajectories carry them.
    """
    lone = not isinstance(config, ConfigStack)
    stack = config.stack if lone else config
    runs = Runs(stack, np.array(theta0, dtype=np.float64).reshape(len(stack.configs), -1))
    n_runs, dim = runs.params.shape
    milestones = dict(lr_milestones)
    loss, alpha = np.empty((2, iterations, n_runs))
    # row 0 holds the starts, so consecutive rows give each step
    thetas = np.empty((iterations + 1, n_runs, dim))
    thetas[0] = runs.params
    phi = None if runs.configs.angular is None else np.empty((iterations, n_runs, dim))
    # divergence is handled (abort status), so overflow on an exploding
    # trajectory must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, iterations + 1):
            if i in milestones:
                runs.state.alpha_t = runs.state.alpha_t / milestones[i]
            grad = objective.grad(runs.params)
            new = runs.step(grad, nonfinite_rows(grad, f"non-finite gradient at iteration {i}"))
            live = runs.live
            if not live.size:
                break
            # while every run is live a plain slice writes the records
            rows = slice(None) if live.size == n_runs else live
            runs.params = thetas[i, rows] = new
            loss[i - 1, rows] = row_loss = objective.eval(new)
            alpha[i - 1, rows] = runs.state.alpha_t[:, 0]
            if phi is not None:
                phi[i - 1, rows] = runs.state.last_phi
            if failed := nonfinite_rows(row_loss, f"non-finite loss at iteration {i}"):
                runs.drop(failed, i)
                if not runs.live.size:
                    break
        runs.finish()
        trajectories = []
        for run, (n, status) in enumerate(zip(runs.steps.tolist(), runs.status)):
            path = thetas[: n + 1, run]
            d = np.diff(path, axis=0)
            angular = stack.configs[run].rule == "angulargrad"
            trajectories.append(Trajectory(
                np.arange(1, n + 1, dtype=np.int64), loss[:n, run].copy(), alpha[:n, run].copy(),
                # np.mean's own sum-then-divide
                np.add.reduce(phi[:n, run], axis=-1) / dim if angular else np.ones(n),
                np.sqrt(np.vecdot(d, d)),
                thetas=path[1:].copy() if record_params else None,
                final_params=runs.final[run], status=status,
            ))
    return trajectories[0] if lone else trajectories


def run_experiment(spec: ExperimentSpec) -> dict[str, list[Trajectory]]:
    """All (optimizer, seed) runs of a spec, stepped as one stack, keyed in
    optimizer then seed order."""
    objective = get_objective(spec.task, dim=spec.dim)
    starts = [resolve_theta0(spec.theta0, objective.dim, make_rng(s)) for s in spec.seeds]
    stack = ConfigStack(config for _, config in spec.optimizers for _ in spec.seeds)
    trajectories = iter(single_run(
        objective, stack, np.array(starts * len(spec.optimizers)),
        spec.iterations, spec.lr_milestones, spec.record_params,
    ))
    return {name: [next(trajectories) for _ in spec.seeds] for name, _ in spec.optimizers}


# ---------------------------------------------------------------------------
# Analysis


def compute_regret(trajectory: Trajectory, objective: Objective) -> RegretRecord:
    """R(T) = sum_t [f(theta_t) - f(theta*)] from the trajectory's losses, with
    theta* the objective's first known minimum."""
    loc, _ = objective.known_minima[0]
    f_star = objective.eval(np.array(loc, dtype=np.float64))
    excess = trajectory.loss - f_star
    with np.errstate(over="ignore"):  # huge finite losses sum to inf, not a warning
        cumulative = np.cumsum(excess)
    average = cumulative / trajectory.t
    return RegretRecord(
        t=trajectory.t.copy(),
        cumulative=cumulative,
        average=average,
        status=trajectory.status,
    )


def grid_eval(objective: Objective, x_range, y_range, resolution: int):
    """(xs, ys, Z) on a resolution^2 grid, where Z[i, j] = f(xs[j], ys[i])."""
    if objective.dim != 2:
        raise ValueError("grid_eval needs a 2-D objective")
    if resolution < 2 or any(float(lo) == float(hi) for lo, hi in (x_range, y_range)):
        raise ValueError("degenerate grid: it needs resolution >= 2 and ranges of non-zero width")
    xs = np.linspace(float(x_range[0]), float(x_range[1]), resolution)
    ys = np.linspace(float(y_range[0]), float(y_range[1]), resolution)
    X, Y = np.meshgrid(xs, ys)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is rejected below
        Z = objective.eval(np.stack([X, Y], axis=-1)).reshape(resolution, resolution)
    if not np.isfinite(Z).all():
        raise ValueError("grid values must be finite; narrow its ranges")
    return xs, ys, Z


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
        # diverged runs' inf or huge final losses give inf or nan, not warnings
        with np.errstate(over="ignore", invalid="ignore"):
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


def _cells(column) -> list[str]:
    """Each float of a column in shortest round-trip form, formatted from
    Python floats (not numpy scalars) and only once for a column whose every
    float has the same bits (so 0.0 and -0.0 keep their own text)."""
    column = np.asarray(column, dtype=np.float64)
    bits = column.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return [repr(column[0].item())] * bits.size
    return list(map(repr, column.tolist()))


def _csv(header: list[str], t, *columns) -> str:
    """Rows of an integer column then float columns (see ``_cells``)."""
    cells = [map(str, np.asarray(t, dtype=np.int64).tolist()), *map(_cells, columns)]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """Header t,loss,alpha,phi_mean,step_norm, then theta_0..theta_{d-1} if the
    trajectory has parameter snapshots."""
    cols = ["t", "loss", "alpha", "phi_mean", "step_norm"]
    values = [trajectory.loss, trajectory.alpha, trajectory.phi_mean, trajectory.step_norm]
    if trajectory.thetas is not None:
        cols += [f"theta_{i}" for i in range(trajectory.thetas.shape[1])]
        values += list(trajectory.thetas.T)
    return _csv(cols, trajectory.t, *values)


def regret_to_csv(record: RegretRecord) -> str:
    return _csv(["t", "regret", "avg_regret"], record.t, record.cumulative, record.average)


def grid_to_csv(xs: np.ndarray, ys: np.ndarray, Z: np.ndarray) -> str:
    """x,y,f rows in row-major order (y outer, x inner)."""
    x_cells = [repr(x) for x in np.asarray(xs, dtype=np.float64).tolist()]
    lines = ["x,y,f"]
    for y, row in zip(np.asarray(ys, dtype=np.float64).tolist(), Z.tolist()):
        y_cell = f",{y!r},"
        lines += [x + y_cell + repr(f) for x, f in zip(x_cells, row)]
    return "\n".join(lines) + "\n"


def summary_to_json(summary: dict) -> str:
    """Strict JSON: a non-finite float (a diverged run's loss) is written as null."""
    strict = json.loads(json.dumps(summary), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
