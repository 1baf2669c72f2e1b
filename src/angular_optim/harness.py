"""Experiment execution: deterministic runs, regret tracking, aggregation, IO.

``run_experiment`` runs every (optimizer, seed) pair on one objective, each
from its own seeded start, and is a pure function of its arguments.  The runs
are stacked as the rows of (R, D) arrays and advanced together: each
iteration makes one step and one value-and-gradient call for all of them, and
a run that aborts drops out of the stack through ``optimizers.Runs`` while
the others go on.  Each row's trajectory is bit for bit the one its run gives
alone, and its fields are read-only views of the stack's records.  The stack
steps in blocks sized by ``BLOCK_BYTES``: only one block of iterates and phi
vectors is held at a time (the whole path only when the runs record
parameters), so a run's memory is its records plus about 1 MiB, however long
or wide the stack.  The results are keyed by optimizer name in the given order.

Every serializer returns its artifact as ``Chunks``, made piece by piece as
it is written, so no artifact is held whole in memory.  CSV floats are
written with shortest round-trip formatting, JSON is strict (a non-finite
float is null), and files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from angular_optim.numerics import Vector, make_rng, mean_std, sized_by
from angular_optim.objectives import Objective
from angular_optim.optimizers import ConfigStack, OptimizerConfig, Runs, nonfinite_rows

# Loss threshold used for iterations-to-threshold on the 1-D functions; the
# Rosenbrock runs instead use distance <= 0.1 to the known minimum.
LOSS_THRESHOLD_1D = 1e-3
ROSENBROCK_DIST_THRESHOLD = 0.1
# single_run's two float64 block buffers, (K + 1, R, D) and (K, R, D), hold
# about 16 K R D bytes: K is the most iterations, up to BLOCK_ITERATIONS, that
# keep them within BLOCK_BYTES, and at least 1 (a stack wider than 64Ki
# params then holds 24 R D bytes).  A stack of up to 512 params keeps K = 128.
BLOCK_ITERATIONS = 128
BLOCK_BYTES = 2**20
# Rows per chunk of a CSV artifact.
CSV_BLOCK_ROWS = 1024


@dataclass
class Trajectory:
    """Per-iteration log of one (optimizer, seed) run.

    Row t records the state after step t: the loss at the updated parameters,
    the live learning rate that produced the step, the mean angular
    coefficient (1.0 for rules that have none), and the step 2-norm.  If the
    run aborts on a non-finite step, rows stop early and ``status`` says why.
    ``single_run`` gives read-only views: every array field views the records,
    path, iteration numbers or final params that its stack's trajectories share.
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


def resolve_theta0(theta0, dim: int, seed: int) -> Vector:
    """Seed ``seed``'s start: a uniform rule's ``dim`` draws from make_rng(seed),
    or a fresh copy of an explicit vector, the same for every seed.  Only a
    rule builds a generator, so an explicit start never loads numpy.random."""
    if isinstance(theta0, dict):
        if theta0.get("rule") != "uniform":
            raise ValueError(f"unknown init rule {theta0!r}")
        low, high = float(theta0["low"]), float(theta0["high"])
        if low > high:
            raise ValueError(f"theta0.low {low!r} is above theta0.high {high!r}")
        if not np.isfinite(high - low):  # numpy's draw would raise OverflowError
            raise ValueError(f"theta0.high - theta0.low overflows: {low!r} to {high!r} is too wide")
        return make_rng(seed).uniform(low, high, size=dim)
    return np.array(theta0, dtype=np.float64, copy=True).reshape(-1)


def single_run(
    objective: Objective,
    stack: ConfigStack,
    theta0: Vector,
    iterations: int,
    lr_milestones: tuple[tuple[int, float], ...] = (),
    record_params: bool = False,
) -> list[Trajectory]:
    """Run a stack of runs at once: a ConfigStack of R configs and an (R, D)
    array of starts give R Trajectories, one per row (a lone run is the stack
    of one).  Never raises on divergence: a run whose gradient, parameters or
    loss turn non-finite stops, its status says why, and the other rows go on.

    One ``value_and_grad`` call at the starts checks their width and gives the
    first gradient; each iteration's ``objective.fn`` call at its stepped params
    gives the rows' losses and the next gradient, checked at the next step.

    The loop records the loss, the rate, the stepped params and (with angular
    rows) the phi vectors.  It steps in blocks of K iterations, and at the end
    of each block takes the block's step norms and phi means from its buffers
    before they are reused: a ``(K + 1, R, D)`` buffer of iterates whose row 0
    carries the previous block's last row, and a ``(K, R, D)`` buffer that
    holds the phi vectors and then the steps.  K = min(BLOCK_ITERATIONS,
    max(1, BLOCK_BYTES // (16 R D))), so the two stay within about 1 MiB.
    Both are row-wise reductions, so no bit depends on where a block starts.
    The whole path is kept only with ``record_params``.

    Each trajectory's fields are read-only views, never copies: its column of
    the ``(4, iterations, R)`` records, its column of the path, a prefix of one
    shared ``arange`` of iteration numbers (and, for a rule with no angle, of
    one shared ones vector), and its row of the final params.
    At each (iteration >= 1, finite divisor > 0) pair of ``lr_milestones`` the
    live rate is divided once, before that step; one past the budget never acts.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not all(0.0 < div < float("inf") for _, div in lr_milestones):
        raise ValueError("lr_milestones divisors must be finite and > 0")
    if not all(it >= 1 for it, _ in lr_milestones):
        raise ValueError("lr_milestones iterations must be >= 1")
    at = [it for it, _ in lr_milestones]  # one divisor each
    if twice := [it for i, it in enumerate(at) if it in at[:i]]:
        raise ValueError(f"lr_milestones iteration {twice[0]} is listed twice")
    runs = Runs(stack, np.array(theta0, dtype=np.float64).reshape(len(stack.configs), -1))
    n_runs, dim = runs.params.shape
    milestones = dict(lr_milestones)
    angular = runs.configs.angular is not None
    with sized_by("iterations", iterations):
        records = np.empty((4, iterations, n_runs))
    loss, alpha, phi_mean, step_norm = records
    path = np.empty((iterations, n_runs, dim)) if record_params else None
    block_size = min(BLOCK_ITERATIONS, max(1, BLOCK_BYTES // (16 * n_runs * dim)), iterations)
    # row n holds the params after the block's n-th step
    iterates = np.empty((block_size + 1, n_runs, dim))
    scratch = np.empty((block_size, n_runs, dim))
    iterates[0] = runs.params
    # divergence is handled (abort status): an overflow or a perpendicular angle must not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, grad = objective.value_and_grad(runs.params)  # checks the starts' width once
        for start in range(0, iterations, block_size):
            n = 0  # the block's steps recorded so far
            for i in range(start + 1, min(start + block_size, iterations) + 1):
                if i in milestones:
                    runs.state.alpha_t = runs.state.alpha_t / milestones[i]
                bad_grad = nonfinite_rows(grad, f"non-finite gradient at iteration {i}")
                new = runs.step(grad, bad_grad)
                live = runs.live
                if not live.size:
                    break
                # while every run is live a plain slice writes the records
                rows = slice(None) if live.size == n_runs else live
                n = i - start
                runs.params = iterates[n, rows] = new
                row_loss, grad = objective.fn(new)
                loss[i - 1, rows] = row_loss
                alpha[i - 1, rows] = runs.state.alpha_t[:, 0]
                if angular:
                    scratch[n - 1, rows] = runs.state.last_phi
                if failed := nonfinite_rows(row_loss, f"non-finite loss at iteration {i}"):
                    grad = grad[runs.drop(failed, i)]
                    if not runs.live.size:
                        break
            # a dropped run's columns hold stale values past its last step; no
            # trajectory reads them
            block = slice(start, start + n)
            if record_params:
                path[start : start + n] = iterates[1 : n + 1]
            if angular:  # np.mean's own sum-then-divide
                phi_mean[block] = np.add.reduce(scratch[:n], axis=-1) / dim
            steps = np.subtract(iterates[1 : n + 1], iterates[:n], out=scratch[:n])
            step_norm[block] = np.sqrt(np.vecdot(steps, steps))
            iterates[0] = iterates[n]
            if not runs.live.size:
                break
        runs.finish()
    t, ones = np.arange(1, iterations + 1, dtype=np.int64), np.ones(iterations)
    for shared in (records, loss, alpha, phi_mean, step_norm, path, t, ones, runs.final):
        if shared is not None:
            shared.flags.writeable = False
    trajectories = []
    for run, (n, status) in enumerate(zip(runs.steps.tolist(), runs.status)):
        is_angular = stack.configs[run].rule == "angulargrad"
        trajectories.append(Trajectory(
            t[:n], loss[:n, run], alpha[:n, run],
            phi_mean[:n, run] if is_angular else ones[:n], step_norm[:n, run],
            thetas=path[:n, run] if record_params else None,
            final_params=runs.final[run], status=status,
        ))
    return trajectories


def run_experiment(objective: Objective, optimizers: dict[str, OptimizerConfig], seeds, theta0,
                   iterations: int, lr_milestones=(), record_params=False):
    """Each optimizer's runs on ``objective``, one per seed from its
    ``resolve_theta0`` start, stepped as one ``single_run`` stack and keyed by
    name in ``optimizers`` order; the result maps each name to its trajectories."""
    starts = [resolve_theta0(theta0, objective.dim, seed) for seed in seeds]
    stack = ConfigStack(config for config in optimizers.values() for _ in seeds)
    trajectories = iter(single_run(
        objective, stack, np.array(starts * len(optimizers)),
        iterations, lr_milestones, record_params,
    ))
    return {name: [next(trajectories) for _ in seeds] for name in optimizers}


# ---------------------------------------------------------------------------
# Analysis


def compute_regret(trajectory: Trajectory, objective: Objective) -> RegretRecord:
    """R(T) = sum_t [f(theta_t) - f(theta*)] from the trajectory's losses, with
    theta* the objective's first known minimum."""
    loc, _ = objective.known_minima[0]
    f_star = objective.value_and_grad(np.array(loc, dtype=np.float64))[0]
    excess = trajectory.loss - f_star
    with np.errstate(over="ignore"):  # huge finite losses sum to inf, not a warning
        cumulative = np.cumsum(excess)
    average = cumulative / trajectory.t
    return RegretRecord(
        t=trajectory.t,
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
        Z = objective.value_and_grad(np.stack([X, Y], axis=-1))[0]
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
    seeds, sample (n-1) normalization; a single seed's std is 0.0 when its
    final loss is finite and NaN (null in the JSON) when it is not.
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
        mean, std = mean_std(finals)
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


class Chunks:
    """An artifact's text as a list of chunks, each a str or a zero-argument
    function that makes its str only when the text is iterated, so the whole
    text is never held at once; ``"".join(chunks)`` is the text.

    Each iteration makes the chunks again, and ``len`` is the number of
    chunks, not of characters (the benchmark's tracer records ``len`` of every
    serializer's result).
    """

    def __init__(self, parts: Iterable[str | Callable[[], str]]):
        self._parts = list(parts)

    def __iter__(self) -> Iterator[str]:
        return (part if isinstance(part, str) else part() for part in self._parts)

    def __len__(self) -> int:
        return len(self._parts)


def _cells(column) -> list[str]:
    """Each float of a column in shortest round-trip form, formatted from
    Python floats (not numpy scalars) and only once for a column whose every
    float has the same bits (so 0.0 and -0.0 keep their own text)."""
    column = np.asarray(column, dtype=np.float64)
    bits = column.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return [repr(column[0].item())] * bits.size
    return list(map(repr, column.tolist()))


def _csv(header: list[str], t, *columns) -> Chunks:
    """The header line, then the rows of an integer column and float columns
    (see ``_cells``, applied to each block's slice), CSV_BLOCK_ROWS to a chunk."""
    t = np.asarray(t, dtype=np.int64)
    columns = [np.asarray(column, dtype=np.float64) for column in columns]

    def block(start: int) -> str:
        rows = slice(start, start + CSV_BLOCK_ROWS)
        cells = [map(str, t[rows].tolist()), *(_cells(column[rows]) for column in columns)]
        return "\n".join(map(",".join, zip(*cells))) + "\n"

    blocks = (partial(block, start) for start in range(0, t.size, CSV_BLOCK_ROWS))
    return Chunks([",".join(header) + "\n", *blocks])


def trajectory_to_csv(trajectory: Trajectory) -> Chunks:
    """Header t,loss,alpha,phi_mean,step_norm, then theta_0..theta_{d-1} if the
    trajectory has parameter snapshots."""
    cols = ["t", "loss", "alpha", "phi_mean", "step_norm"]
    values = [trajectory.loss, trajectory.alpha, trajectory.phi_mean, trajectory.step_norm]
    if trajectory.thetas is not None:
        cols += [f"theta_{i}" for i in range(trajectory.thetas.shape[1])]
        values += list(trajectory.thetas.T)
    return _csv(cols, trajectory.t, *values)


def regret_to_csv(record: RegretRecord) -> Chunks:
    return _csv(["t", "regret", "avg_regret"], record.t, record.cumulative, record.average)


def grid_to_csv(xs: np.ndarray, ys: np.ndarray, Z: np.ndarray) -> Chunks:
    """x,y,f rows in row-major order (y outer, x inner), one grid row to a chunk."""
    x_cells = [repr(x) for x in np.asarray(xs, dtype=np.float64).tolist()]

    def row(y: float, values: np.ndarray) -> str:
        y_cell = f",{y!r},"
        return "\n".join([x + y_cell + repr(f) for x, f in zip(x_cells, values.tolist())]) + "\n"

    ys = np.asarray(ys, dtype=np.float64).tolist()
    return Chunks(["x,y,f\n", *(partial(row, y, values) for y, values in zip(ys, Z))])


def summary_to_json(summary: dict) -> str:
    """Strict JSON: a non-finite float (a diverged run's loss) is written as null."""
    strict = json.loads(json.dumps(summary), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write a str, or an iterable of str chunks (such as ``Chunks``) one at a
    time, to a temp file in the target directory, then rename it over the
    target.  If making or writing a chunk fails, the target keeps its old bytes
    and the temp file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
