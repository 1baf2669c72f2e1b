"""Command-line front end emitting CSV/JSON/SVG artifacts.

Subcommands: toy, rosenbrock, mlp, regret, gradcheck, plot.  Each one is
deterministic given its config file and seed list.  Config files are JSON
with the same field names as the built-in defaults; command-line flags
override file values (flags > file > defaults).

Exit codes: 0 success, 1 run divergence, 2 config error, 3 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from angular_optim import defaults
from angular_optim.harness import (
    ROSENBROCK_DIST_THRESHOLD,
    ExperimentSpec,
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
from angular_optim.models import Dataset, MlpRun, MlpSpec, loss_and_grad, make_blobs, train_mlp
from angular_optim.numerics import finite_diff_grad, make_rng, relative_error
from angular_optim.objectives import get_objective
from angular_optim.optimizers import ConfigStack, OptimizerConfig
from angular_optim.svgplot import Series, render_line_chart, render_overlay


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config(command: str, path: str | None) -> dict:
    config = defaults.default_config(command)
    if path is None:
        return config
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {path}: {err}")
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    for key, value in user.items():
        if key not in config:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        # "grid" and "blobs" may use only their default keys; optimizer names
        # are the user's own and theta0 may be a vector
        nested = isinstance(value, dict) and isinstance(config[key], dict)
        for sub in value if nested and key not in ("optimizers", "theta0") else ():
            if sub not in config[key]:
                raise ConfigError(f"unknown config key '{key}.{sub}' for command {command!r}")
        config[key] = value
    return config


def _apply_overrides(config: dict, args) -> dict:
    if getattr(args, "seeds", None):
        try:
            config["seeds"] = [int(s) for s in args.seeds.split(",") if s != ""]
        except ValueError:
            raise ConfigError(f"bad --seeds value {args.seeds!r}")
        if not config["seeds"]:
            raise ConfigError("empty --seeds list")
    for i, seed in enumerate(config.get("seeds", ())):  # a repeat would overwrite a CSV
        if seed in config["seeds"][:i]:
            raise ConfigError(f"seed {seed!r} is listed twice")
    if getattr(args, "iters", None) is not None:
        if args.iters < 1:
            raise ConfigError("--iters must be >= 1")
        if "iterations" in config:
            config["iterations"] = args.iters
        elif "epochs" in config:
            config["epochs"] = args.iters
    if getattr(args, "optimizers", None):
        wanted = [s for s in args.optimizers.split(",") if s != ""]
        known = config.get("optimizers", {})
        for name in wanted:
            if name not in known:
                raise ConfigError(
                    f"unknown optimizer {name!r}; known: {', '.join(sorted(known))}"
                )
        config["optimizers"] = {name: known[name] for name in wanted}
    return config


def _build_optimizers(config: dict) -> tuple[tuple[str, OptimizerConfig], ...]:
    out = []
    for name, fields in config["optimizers"].items():
        if not isinstance(fields, dict):
            raise ConfigError(f"optimizer {name!r} must map to an object")
        try:
            out.append((name, OptimizerConfig(**fields)))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"optimizer {name!r}: {err}")
    return tuple(out)


def _run(config: dict, task: str) -> tuple[ExperimentSpec, dict[str, list[Trajectory]]]:
    """Build the ExperimentSpec a protocol config describes for ``task`` and run it."""
    dim = config.get("dim")
    try:
        milestones = tuple((int(it), float(div)) for it, div in config["lr_milestones"])
    except (TypeError, ValueError):
        raise ConfigError(f"bad lr_milestones {config['lr_milestones']!r}")
    spec = ExperimentSpec(
        task=task,
        optimizers=_build_optimizers(config),
        iterations=int(config["iterations"]),
        seeds=tuple(config["seeds"]),
        theta0=config["theta0"],
        record_params=bool(config["record_params"]),
        lr_milestones=milestones,
        dim=None if dim is None else int(dim),
    )
    return spec, run_experiment(spec)


def _write_runs(out: Path, prefix: str, seeds, runs: dict, to_csv=trajectory_to_csv) -> list[str]:
    """Write ``to_csv(run)`` to <prefix>_<name>_s<seed>.csv for every run.

    ``runs`` maps each optimizer name to one result per seed, each with a
    ``status``; the statuses are returned in (optimizer, seed) order.
    """
    statuses = []
    for name, results in runs.items():
        for seed, result in zip(seeds, results):
            write_text_atomic(out / f"{prefix}_{name}_s{seed}.csv", to_csv(result))
            statuses.append(result.status)
    return statuses


# ---------------------------------------------------------------------------
# Protocols: each takes the resolved config and the output directory (toy
# also the --log-scale flag), and returns its run statuses


def _toy(config: dict, out: Path, log_scale: bool) -> list[str]:
    statuses = []
    for task in config["tasks"]:
        spec, runs = _run(config, task)
        statuses += _write_runs(out, f"toy_{task}", spec.seeds, runs)
        firsts = {name: trajs[0] for name, trajs in runs.items()}
        write_text_atomic(
            out / f"toy_{task}_summary.json",
            summary_to_json(aggregate(runs, spec.iterations)),
        )
        write_text_atomic(
            out / f"toy_{task}_loss.svg",
            render_line_chart(
                [Series(name, first.t, first.loss) for name, first in firsts.items()],
                title=f"{task}: loss vs iteration",
                xlabel="iteration", ylabel="loss", log_y=log_scale,
            ),
        )
        write_text_atomic(
            out / f"toy_{task}_theta.svg",
            render_line_chart(
                [
                    Series(name, first.t, first.thetas[:, 0])
                    for name, first in firsts.items()
                    if first.thetas is not None
                ],
                title=f"{task}: theta vs iteration", xlabel="iteration", ylabel="theta",
            ),
        )
    return statuses


def _rosenbrock(config: dict, out: Path) -> list[str]:
    spec, runs = _run(config, config["task"])
    objective = get_objective(config["task"], dim=spec.dim)
    target = np.array(objective.known_minima[0][0])
    statuses = _write_runs(out, "rosenbrock", spec.seeds, runs)

    def dist_threshold(traj):
        if traj.thetas is None:
            return traj.loss, 0.0
        # a diverged run's thetas may square to inf, which never meets it
        with np.errstate(over="ignore"):
            dist = np.sqrt(np.sum((traj.thetas - target) ** 2, axis=1))
        return dist, ROSENBROCK_DIST_THRESHOLD

    write_text_atomic(
        out / "rosenbrock_summary.json",
        summary_to_json(aggregate(runs, spec.iterations, threshold_fn=dist_threshold)),
    )
    grid_cfg = config["grid"]
    xs, ys, Z = grid_eval(
        objective, grid_cfg["x_range"], grid_cfg["y_range"],
        int(grid_cfg["resolution"]),
    )
    write_text_atomic(out / "rosenbrock_grid.csv", grid_to_csv(xs, ys, Z))
    paths = [
        Series(name, trajs[0].thetas[:, 0], trajs[0].thetas[:, 1])
        for name, trajs in runs.items()
        if trajs[0].thetas is not None
    ]
    write_text_atomic(
        out / "rosenbrock_overlay.svg",
        render_overlay(xs, ys, Z, paths, title="Rosenbrock trajectories"),
    )
    return statuses


def _mlp_to_csv(run: MlpRun) -> str:
    columns = ["epoch", "mean_batch_loss", "train_loss", "train_accuracy"]
    return _csv(columns, *([getattr(r, c) for r in run.records] for c in columns))


def _mlp(config: dict, out: Path) -> list[str]:
    layers = tuple(int(n) for n in config["layer_sizes"])
    mlp_spec = MlpSpec(layers, config["activation"], config["loss"])
    blobs = config["blobs"]
    shape = int(blobs["n_per_class"]), int(blobs["classes"]), float(blobs["separation"])
    seeds = [int(s) for s in config["seeds"]]
    optimizers = _build_optimizers(config)
    if not optimizers or not seeds:
        raise ConfigError("need at least one optimizer and one seed")
    rngs = [make_rng(seed) for seed in seeds]
    data = [make_blobs(rng, *shape) for rng in rngs]
    trained = iter(train_mlp(
        mlp_spec, data, ConfigStack(c for _, c in optimizers for _ in seeds),
        int(config["epochs"]), int(config["batch_size"]), rngs,
    ))
    runs = {name: [next(trained) for _ in seeds] for name, _ in optimizers}
    statuses = _write_runs(out, "mlp", seeds, runs, _mlp_to_csv)
    summary = {}
    for name, results in runs.items():
        entry = summary[name] = {"status": [r.status for r in results]}
        for metric in ("loss", "accuracy"):
            finals = [getattr(r.records[-1], f"train_{metric}") for r in results if r.records]
            entry[f"final_train_{metric}"] = finals
            entry[f"mean_final_{metric}"] = float(np.mean(finals)) if finals else None
            entry[f"std_final_{metric}"] = (
                float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
            )
    write_text_atomic(out / "mlp_summary.json", summary_to_json(summary))
    return statuses


def _regret(config: dict, out: Path) -> list[str]:
    spec, runs = _run(config, config["task"])
    objective = get_objective(config["task"], dim=spec.dim)
    records = {
        name: [compute_regret(traj, objective) for traj in trajs]
        for name, trajs in runs.items()
    }
    statuses = _write_runs(out, "regret", spec.seeds, records, regret_to_csv)
    write_text_atomic(
        out / "regret_avg.svg",
        render_line_chart(
            [Series(name, recs[0].t, recs[0].average) for name, recs in records.items()],
            title="average regret vs t", xlabel="t", ylabel="R(t)/t",
            log_x=True, log_y=True,
        ),
    )
    summary = {
        name: {
            # null when the run aborted on its first step
            "final_avg_regret": float(recs[0].average[-1]) if len(recs[0].t) else None,
            "theta_star_source": recs[0].theta_star_source,
            "status": recs[0].status,
        }
        for name, recs in records.items()
    }
    write_text_atomic(out / "regret_summary.json", summary_to_json(summary))
    return statuses


PROTOCOLS = {"toy": _toy, "rosenbrock": _rosenbrock, "mlp": _mlp, "regret": _regret}


def run_protocol(args) -> int:
    """Run the protocol named by the subcommand: load its config, apply the
    flags, run, and exit 1 if any run diverged (0 with --allow-divergence)."""
    config = _apply_overrides(_load_config(args.command, args.config), args)
    flags = {"log_scale": args.log_scale} if "log_scale" in args else {}
    statuses = PROTOCOLS[args.command](config, Path(args.out), **flags)
    bad = [s for s in statuses if s != "ok"]
    for s in bad:
        print(f"warning: {s}", file=sys.stderr)
    return 1 if bad and not args.allow_divergence else 0


def cmd_gradcheck(args) -> int:
    config = _load_config("gradcheck", args.config)
    if getattr(args, "seeds", None):
        try:
            config["seed"] = int(args.seeds.split(",")[0])
        except ValueError:
            raise ConfigError(f"bad --seeds value {args.seeds!r}")
    rng = make_rng(int(config["seed"]))
    margin = float(config["nonsmooth_margin"])
    n_points = int(config["points_per_objective"])
    tol_obj = float(config["tolerance_objectives"])
    tol_mlp = float(config["tolerance_mlp"])
    failures = []

    def check(label, worst, tol):
        verdict = "ok" if worst <= tol else f"FAIL (tol {tol:g})"
        print(f"{label}: worst relative error {worst:.3e} {verdict}")
        if worst > tol:
            failures.append(label)

    def worst_error(objective, sample):
        worst = 0.0
        for _ in range(n_points):
            x = sample(objective)
            worst = max(
                worst,
                relative_error(objective.grad(x), finite_diff_grad(objective.eval, x)),
            )
        return worst

    def sample_point(objective):
        while True:
            x = np.array(
                [rng.uniform(lo, hi) for lo, hi in objective.domain]
            )
            if all(
                abs(x[0] - p) > margin for p in objective.nonsmooth_points
            ) or objective.dim > 1:
                return x

    for name in ("f1", "f2", "f3"):
        objective = get_objective(name)
        check(name, worst_error(objective, sample_point), tol_obj)

    for dim in config["rosenbrock_dims"]:
        objective = get_objective("rosenbrock", dim=int(dim))
        worst = worst_error(objective, lambda o: rng.uniform(-2.048, 2.048, size=o.dim))
        check(f"rosenbrock dim {dim}", worst, tol_obj)

    objective = get_objective("quadratic", dim=int(config["quadratic_dim"]))
    worst = worst_error(objective, lambda o: rng.uniform(-5.0, 5.0, size=o.dim))
    check("quadratic", worst, tol_obj)

    from angular_optim.models import init_params

    layer_sizes = tuple(int(n) for n in config["mlp_layer_sizes"])
    mlp_spec = MlpSpec(layer_sizes=layer_sizes)
    params = init_params(mlp_spec, rng)
    k = layer_sizes[-1]
    X = rng.normal(size=(8, layer_sizes[0]))
    y = np.arange(8) % k  # every class present, contiguous from 0
    data = Dataset(features=X, labels=y)

    def mlp_loss(flat):
        probe = type(params)(flat=flat, layout=params.layout)
        loss, _ = loss_and_grad(probe, mlp_spec, data.features, data.labels)
        return loss

    _, analytic = loss_and_grad(params, mlp_spec, data.features, data.labels)
    fd = finite_diff_grad(mlp_loss, params.flat)
    check(f"mlp {list(layer_sizes)}", relative_error(analytic, fd), tol_mlp)

    return 3 if failures else 0


def cmd_plot(args) -> int:
    out = Path(args.out)
    series = []
    for path in args.files:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"no such trajectory file: {path}")
        with open(p) as fh:
            header = fh.readline().strip().split(",")
            if "t" not in header or "loss" not in header:
                raise ConfigError(f"{path}: expected t and loss columns")
            ti, li = header.index("t"), header.index("loss")
            ts, losses = [], []
            for line in fh:
                cells = line.strip().split(",")
                if len(cells) <= max(ti, li):
                    continue
                ts.append(float(cells[ti]))
                losses.append(float(cells[li]))
        series.append(Series(p.stem, np.array(ts), np.array(losses)))
    write_text_atomic(
        out / "plot.svg",
        render_line_chart(
            series, title="trajectories", xlabel="t", ylabel="loss",
            log_y=args.log_scale,
        ),
    )
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
            p.add_argument("--config", default=None, help="JSON config file")
            p.add_argument("--seeds", default=None, help="comma-separated seed list")
            p.add_argument("--optimizers", default=None, help="comma-separated filter")
            p.add_argument("--iters", type=int, default=None, help="iteration/epoch override")
            p.add_argument(
                "--allow-divergence", action="store_true",
                help="exit 0 even if a run aborts on a non-finite step",
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
    except (ConfigError, KeyError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
