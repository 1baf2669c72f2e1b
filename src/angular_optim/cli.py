"""Command-line front end emitting CSV/JSON/SVG artifacts.

Subcommands: toy, rosenbrock, mlp, regret, gradcheck, plot.  Each one is
deterministic given its config and seeds.  The four protocols (toy,
rosenbrock, mlp, regret) take a JSON config file with the same field names as
the built-in defaults; command-line flags override file values (flags > file
> defaults).  A protocol writes nothing itself: it returns its artifacts, and
run_protocol writes them under --out after every run has finished.
gradcheck runs one fixed check set and takes only a seed.

Exit codes: 0 success, 1 run divergence, 2 config error, 3 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from angular_optim import defaults
from angular_optim.harness import (
    ROSENBROCK_DIST_THRESHOLD,
    Chunks,
    Trajectory,
    _csv,
    aggregate,
    compute_regret,
    grid_eval,
    grid_to_csv,
    regret_to_csv,
    run_experiment,
    summary_to_json,
    trajectory_to_csv,
    write_text_atomic,
)
from angular_optim.models import MlpRun, MlpSpec, init_params, loss_and_grad, make_blobs, train_mlp
from angular_optim.numerics import finite_diff_grad, make_rng, mean_std, relative_error
from angular_optim.objectives import Objective, get_objective
from angular_optim.optimizers import ConfigStack, OptimizerConfig
from angular_optim.svgplot import Series, render_line_chart, render_overlay


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config plumbing


# a config value's JSON type, named by its default's (a float's also takes an int)
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}
_OPTIMIZER_FIELDS = {f.name: f.default for f in dataclasses.fields(OptimizerConfig)}
_INT64 = range(-2**63, 2**63)


def _int64(text: str) -> int:
    """json's int reader, rejecting an integer outside int64 (as a float it may overflow)."""
    value = int(text)
    if value not in _INT64:
        raise ConfigError(f"integer {text} in config is outside int64")
    return value


def _finite(text: str) -> float:
    """json's float reader, rejecting NaN, Infinity and numbers that overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def _unique_keys(pairs: list) -> dict:
    """json's object builder, rejecting a key one object names twice."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"config key {key!r} is listed twice")
        seen.add(key)
    return dict(pairs)


def _load_config(command: str, path: str | None) -> dict:
    config = defaults.default_config(command)
    if path is None:
        return config
    try:
        with open(path) as fh:
            user = json.load(fh, parse_float=_finite, parse_int=_int64, parse_constant=_finite,
                             object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}")
    except ConfigError as err:  # a number or a key json's hooks reject
        raise ConfigError(f"{path}: {err}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")

    def check(value, default, key):
        """Each value must have the JSON type of its default (a bool is not a
        number), each list item that of the default's first item, and a list or
        the optimizers must not be empty where the default is not.  An object
        takes only its default's keys, except that optimizer names are the
        user's own, each entry taking OptimizerConfig's fields ({} is all
        defaults), and theta0 is a vector or an init rule like regret's.  The
        root and the optimizer entries take any subset of their keys; grid,
        blobs and an init rule replace their defaults whole, so need every key."""
        if type(value) is not type(default) and (type(default), type(value)) != (float, int):
            raise ConfigError(f"{key} must be {_JSON_TYPES[type(default)]}, not {value!r}")
        if default and not value and (type(value) is list or key == "optimizers"):
            raise ConfigError(f"{key} must not be empty")
        for i, item in enumerate(value if type(value) is list and default else ()):
            check(item, default[0], f"{key}[{i}]")
        for sub, item in value.items() if type(value) is dict else ():
            path = f"{key}.{sub}" if key else sub
            if key == "optimizers":
                check(item, _OPTIMIZER_FIELDS, path)
            elif sub not in default:
                raise ConfigError(f"unknown config key {path!r} for command {command!r}")
            elif sub == "theta0":
                kind = defaults.DEFAULT_REGRET if type(item) is dict else defaults.DEFAULT_TOY
                check(item, kind["theta0"], path)
            else:
                check(item, default[sub], path)
        whole = type(value) is dict and key.partition(".")[0] not in ("", "optimizers")
        for sub in default if whole else ():
            if sub not in value:
                raise ConfigError(f"missing config key {f'{key}.{sub}'!r} for command {command!r}")

    check(user, config, "")
    config.update(user)
    return config


def _apply_overrides(config: dict, args) -> dict:
    if getattr(args, "seeds", None) is not None:
        try:
            config["seeds"] = [int(s) for s in args.seeds.split(",") if s != ""]
        except ValueError:
            raise ConfigError(f"bad --seeds value {args.seeds!r}")
        if not config["seeds"]:
            raise ConfigError("empty --seeds list")
    seeds = config["seeds"]
    for i, seed in enumerate(seeds):
        if seed < 0:  # make_rng takes none, and toy would write it in a file name
            raise ConfigError(f"seed {seed} must be >= 0")
        if seed not in _INT64:  # a flag's; a config file's is checked as it is read
            raise ConfigError(f"seed {seed} is outside int64")
        if seed in seeds[:i]:  # a repeat would overwrite a CSV
            raise ConfigError(f"seed {seed!r} is listed twice")
    if getattr(args, "iters", None) is not None:
        if args.iters < 1:
            raise ConfigError("--iters must be >= 1")
        if args.iters not in _INT64:
            raise ConfigError(f"--iters {args.iters} is outside int64")
        if "iterations" in config:
            config["iterations"] = args.iters
        elif "epochs" in config:
            config["epochs"] = args.iters
    if getattr(args, "optimizers", None) is not None:
        wanted = [s for s in args.optimizers.split(",") if s != ""]
        if not wanted:
            raise ConfigError("empty --optimizers list")
        known = config.get("optimizers", {})
        for i, name in enumerate(wanted):
            if name not in known:
                raise ConfigError(
                    f"unknown optimizer {name!r}; known: {', '.join(sorted(known))}"
                )
            if name in wanted[:i]:  # it would run once
                raise ConfigError(f"optimizer {name!r} is listed twice")
        config["optimizers"] = {name: known[name] for name in wanted}
    return config


def _build_optimizers(config: dict) -> dict[str, OptimizerConfig]:
    optimizers = {}
    for name, fields in config["optimizers"].items():
        try:
            optimizers[name] = OptimizerConfig(**fields)
        except ValueError as err:
            raise ConfigError(f"optimizer {name!r}: {err}")
    return optimizers


def _run(config: dict, objective: Objective, record_params: bool) -> dict[str, list[Trajectory]]:
    """The runs a protocol config describes on ``objective``; the protocol,
    not its config, says whether they record parameters."""
    milestones = config["lr_milestones"]
    for pair in milestones:  # the config check has no default item to type these by
        if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is int
                and type(pair[1]) in (int, float)):
            raise ConfigError(f"lr_milestones items must be [integer, number] pairs, not {pair!r}")
    return run_experiment(objective, _build_optimizers(config), config["seeds"], config["theta0"],
                          config["iterations"], [(it, float(div)) for it, div in milestones],
                          record_params)


def _run_files(prefix: str, seeds, runs: dict, to_csv) -> tuple[dict, list[str]]:
    """Each run's <prefix>_<name>_s<seed>.csv artifact, ``to_csv(run)``, and the
    run statuses in (optimizer, seed) order; ``runs`` maps each optimizer name
    to one result per seed, each with a ``status``."""
    files, statuses = {}, []
    for name, results in runs.items():
        for seed, result in zip(seeds, results):
            files[f"{prefix}_{name}_s{seed}.csv"] = to_csv(result)
            statuses.append(result.status)
    return files, statuses


# ---------------------------------------------------------------------------
# Protocols: each takes the resolved config (toy also the --log-scale flag)
# and writes nothing: it returns its artifacts, file name to text (a str or
# Chunks) in write order, and its run statuses in (optimizer, seed) order


def _toy(config: dict, log_scale: bool) -> tuple[dict, list[str]]:
    objectives = [(task, get_objective(task)) for task in config["tasks"]]
    if wide := [task for task, objective in objectives if objective.dim != 1]:
        raise ConfigError(f"toy tasks must be 1-D, not {', '.join(wide)}")
    files, statuses = {}, []
    for task, objective in objectives:
        runs = _run(config, objective, record_params=True)
        csvs, task_statuses = _run_files(f"toy_{task}", config["seeds"], runs, trajectory_to_csv)
        statuses += task_statuses
        firsts = {name: trajs[0] for name, trajs in runs.items()}
        files |= csvs | {
            f"toy_{task}_summary.json": summary_to_json(aggregate(runs, config["iterations"])),
            f"toy_{task}_loss.svg": render_line_chart(
                [Series(name, first.t, first.loss) for name, first in firsts.items()],
                title=f"{task}: loss vs iteration",
                xlabel="iteration", ylabel="loss", log_y=log_scale,
            ),
            f"toy_{task}_theta.svg": render_line_chart(
                [Series(name, first.t, first.thetas[:, 0]) for name, first in firsts.items()],
                title=f"{task}: theta vs iteration", xlabel="iteration", ylabel="theta",
            ),
        }
    return files, statuses


def _rosenbrock(config: dict) -> tuple[dict, list[str]]:
    objective, grid = get_objective("rosenbrock"), config["grid"]
    # a bad grid exits before any run
    xs, ys, Z = grid_eval(objective, grid["x_range"], grid["y_range"], grid["resolution"])
    runs = _run(config, objective, record_params=True)
    target = np.array(objective.known_minima[0][0])
    files, statuses = _run_files("rosenbrock", config["seeds"], runs, trajectory_to_csv)

    def dist_threshold(traj):
        # a diverged run's thetas may square to inf, which never meets it
        with np.errstate(over="ignore"):
            dist = np.sqrt(np.sum((traj.thetas - target) ** 2, axis=1))
        return dist, ROSENBROCK_DIST_THRESHOLD

    files["rosenbrock_summary.json"] = summary_to_json(
        aggregate(runs, config["iterations"], threshold_fn=dist_threshold))
    files["rosenbrock_grid.csv"] = grid_to_csv(xs, ys, Z)
    paths = [Series(name, *trajs[0].thetas.T) for name, trajs in runs.items()]
    files["rosenbrock_overlay.svg"] = render_overlay(
        xs, ys, Z, paths, title="Rosenbrock trajectories")
    return files, statuses


def _mlp_to_csv(run: MlpRun) -> Chunks:
    return _csv(["epoch", "mean_batch_loss", "train_loss", "train_accuracy"],
                np.arange(1, run.train_loss.size + 1), run.mean_batch_loss, run.train_loss,
                run.train_accuracy)


def _mlp(config: dict) -> tuple[dict, list[str]]:
    mlp_spec = MlpSpec(tuple(config["layer_sizes"]), config["activation"], config["loss"])
    blobs = config["blobs"]
    shape = (blobs["n_per_class"], blobs["classes"], float(blobs["separation"]))
    seeds = config["seeds"]
    optimizers = _build_optimizers(config)
    rngs = [make_rng(seed) for seed in seeds]
    data = [make_blobs(rng, *shape) for rng in rngs]
    trained = iter(train_mlp(
        mlp_spec, data, ConfigStack(c for c in optimizers.values() for _ in seeds),
        config["epochs"], config["batch_size"], rngs,
    ))
    runs = {name: [next(trained) for _ in seeds] for name in optimizers}
    files, statuses = _run_files("mlp", seeds, runs, _mlp_to_csv)
    summary = {}
    for name, results in runs.items():
        entry = summary[name] = {"status": [r.status for r in results]}
        for metric in ("loss", "accuracy"):
            # one entry per seed, NaN (null in the JSON) where the run aborted
            finals = [getattr(r, f"train_{metric}")[-1] if r.status == "ok" else math.nan
                      for r in results]
            entry[f"final_train_{metric}"] = finals
            entry[f"mean_final_{metric}"], entry[f"std_final_{metric}"] = mean_std(finals)
    files["mlp_summary.json"] = summary_to_json(summary)
    return files, statuses


def _regret(config: dict) -> tuple[dict, list[str]]:
    objective = get_objective(config["task"], dim=config["dim"])
    runs = _run(config, objective, record_params=False)
    records = {
        name: [compute_regret(traj, objective) for traj in trajs]
        for name, trajs in runs.items()
    }
    files, statuses = _run_files("regret", config["seeds"], records, regret_to_csv)
    files["regret_avg.svg"] = render_line_chart(
        [Series(name, recs[0].t, recs[0].average) for name, recs in records.items()],
        title="average regret vs t", xlabel="t", ylabel="R(t)/t", log_x=True, log_y=True,
    )
    summary = {
        name: {
            # one entry per seed, null where the run aborted on its first step
            "final_avg_regret": [float(r.average[-1]) if len(r.t) else None for r in recs],
            "theta_star_source": "known_minimum",
            "status": [r.status for r in recs],
        }
        for name, recs in records.items()
    }
    files["regret_summary.json"] = summary_to_json(summary)
    return files, statuses


def _write(out: str, files: dict) -> None:
    """Write each artifact to its file under ``out``, in order.  A write that
    fails is a config error naming the path; the files before it stay."""
    for name, text in files.items():
        path = Path(out) / name
        try:
            write_text_atomic(path, text)
        except OSError as err:
            raise ConfigError(f"cannot write {path}: {err}")


PROTOCOLS = {"toy": _toy, "rosenbrock": _rosenbrock, "mlp": _mlp, "regret": _regret}


def run_protocol(args) -> int:
    """Run the protocol named by the subcommand: load its config, apply the
    flags, run, write the artifacts once every run has finished, and exit 1 if
    any run diverged (0 with --allow-divergence)."""
    config = _apply_overrides(_load_config(args.command, args.config), args)
    flags = {"log_scale": args.log_scale} if "log_scale" in args else {}
    files, statuses = PROTOCOLS[args.command](config, **flags)
    _write(args.out, files)
    bad = [s for s in statuses if s != "ok"]
    for s in bad:
        print(f"warning: {s}", file=sys.stderr)
    return 1 if bad and not args.allow_divergence else 0


def cmd_gradcheck(args) -> int:
    """Check every analytic gradient against central differences: each
    objective at 100 points at least 1e-3 from its non-smooth points
    (tolerance 1e-5), the MLP on one random batch (tolerance 1e-4)."""
    seed = 0
    if args.seeds is not None:  # parsed as the protocols parse theirs
        seed, *more = _apply_overrides({}, args)["seeds"]
        if more:
            raise ConfigError(f"gradcheck takes one seed, not {args.seeds!r}")
    rng = make_rng(seed)
    failures = []

    def check(label, worst, tol):
        ok = worst <= tol  # False for a NaN error
        verdict = "ok" if ok else f"FAIL (tol {tol:g})"
        print(f"{label}: worst relative error {worst:.3e} {verdict}")
        if not ok:
            failures.append(label)

    def sample(objective):
        while True:
            x = np.array([rng.uniform(lo, hi) for lo, hi in objective.domain])
            if all(abs(x[0] - p) > 1e-3 for p in objective.nonsmooth_points):
                return x

    objectives = [(name, get_objective(name)) for name in ("f1", "f2", "f3")]
    objectives += [(f"rosenbrock dim {dim}", get_objective("rosenbrock", dim=dim))
                   for dim in (2, 5, 10)]
    objectives.append(("quadratic", get_objective("quadratic", dim=10)))
    for label, objective in objectives:
        f = lambda x: objective.value_and_grad(x)[0]
        errors = []
        for _ in range(100):
            x = sample(objective)
            errors.append(relative_error(objective.value_and_grad(x)[1], finite_diff_grad(f, x)))
        check(label, np.max(errors), 1e-5)

    mlp_spec = MlpSpec(layer_sizes=(4, 8, 8, 3))
    params = init_params(mlp_spec, rng)
    X = rng.normal(size=(8, 4))
    y = np.arange(8) % 3  # every class present, contiguous from 0
    _, analytic = loss_and_grad(params, mlp_spec, X, y)
    fd = finite_diff_grad(lambda flat: loss_and_grad(flat, mlp_spec, X, y)[0], params)
    check(f"mlp {list(mlp_spec.layer_sizes)}", relative_error(analytic, fd), 1e-4)

    return 3 if failures else 0


def cmd_plot(args) -> int:
    series = []
    for path in args.files:
        p = Path(path)
        try:
            fh = open(p, "rb")
        except OSError as err:
            raise ConfigError(f"cannot read trajectory file {path}: {err}")
        with fh:  # binary, so that each line is decoded alone and a bad byte names its line
            try:
                header = fh.readline().decode().strip().split(",")
            except UnicodeDecodeError as err:
                raise ConfigError(f"{path}, line 1: {err}")
            if "t" not in header or "loss" not in header:
                raise ConfigError(f"{path}: expected t and loss columns")
            ti, li = header.index("t"), header.index("loss")
            ts, losses = [], []
            for number, line in enumerate(fh, start=2):
                try:  # a cell that is not a number, or a byte that is not UTF-8
                    cells = line.decode().strip().split(",")
                    if len(cells) > max(ti, li):
                        ts.append(float(cells[ti]))
                        losses.append(float(cells[li]))
                except ValueError as err:
                    raise ConfigError(f"{path}, line {number}: {err}")
        series.append(Series(p.stem, np.array(ts), np.array(losses)))
    _write(args.out, {"plot.svg": render_line_chart(
        series, title="trajectories", xlabel="t", ylabel="loss", log_y=args.log_scale,
    )})
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angular-optim",
        description="Optimizer benchmarks: toy functions, Rosenbrock, MLP, regret.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        **dict.fromkeys(PROTOCOLS, run_protocol), "gradcheck": cmd_gradcheck, "plot": cmd_plot,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if name == "plot":
            p.add_argument("files", nargs="+", help="trajectory CSV files")
        else:
            seeds_help = "one seed" if name == "gradcheck" else "comma-separated seed list"
            p.add_argument("--seeds", default=None, help=seeds_help)
        if name in PROTOCOLS:
            p.add_argument("--config", default=None, help="JSON config file")
            p.add_argument("--optimizers", default=None, help="comma-separated filter")
            p.add_argument("--iters", type=int, default=None, help="iteration/epoch override")
            p.add_argument(
                "--allow-divergence", action="store_true",
                help="exit 0 even if a run aborts",
            )
        p.add_argument("--out", default="artifacts", help="output directory")
        if name in ("toy", "plot"):
            p.add_argument("--log-scale", action="store_true", help="log-scale loss axes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, KeyError, ValueError, MemoryError) as err:
        # a MemoryError is a run too large to allocate; Python's own has no message
        print(f"config error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
