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
    ExperimentSpec,
    aggregate,
    compute_regret,
    grid_eval,
    grid_to_csv,
    regret_to_csv,
    resolve_threads,
    run_experiment,
    summary_to_json,
    trajectory_to_csv,
    write_text_atomic,
)
from angular_optim.models import (
    Dataset,
    MlpSpec,
    NonFiniteLossError,
    loss_and_grad,
    make_blobs,
    train_mlp,
)
from angular_optim.numerics import (
    finite_diff_grad,
    fmt_float,
    make_rng,
    relative_error,
)
from angular_optim.objectives import get_objective
from angular_optim.optimizers import NonFiniteStepError, OptimizerConfig
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


def _milestones(config: dict) -> tuple[tuple[int, float], ...]:
    raw = config.get("lr_milestones", [])
    try:
        return tuple((int(it), float(div)) for it, div in raw)
    except (TypeError, ValueError):
        raise ConfigError(f"bad lr_milestones {raw!r}")


def _divergence_exit(statuses: list[str], allow: bool) -> int:
    bad = [s for s in statuses if s != "ok"]
    if bad:
        for s in bad:
            print(f"warning: {s}", file=sys.stderr)
        if not allow:
            return 1
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_toy(args) -> int:
    config = _apply_overrides(_load_config("toy", args.config), args)
    optimizers = _build_optimizers(config)
    out = Path(args.out)
    threads = resolve_threads()
    statuses = []
    for task in config["tasks"]:
        spec = ExperimentSpec(
            task=task,
            optimizers=optimizers,
            iterations=int(config["iterations"]),
            seeds=tuple(config["seeds"]),
            theta0=np.array(config["theta0"], dtype=np.float64),
            record_params=bool(config["record_params"]),
            lr_milestones=_milestones(config),
        )
        runs = run_experiment(spec, threads=threads)
        loss_series, theta_series = [], []
        for name, trajs in runs.items():
            for seed, traj in zip(spec.seeds, trajs):
                write_text_atomic(
                    out / f"toy_{task}_{name}_s{seed}.csv", trajectory_to_csv(traj)
                )
                statuses.append(traj.status)
            first = trajs[0]
            loss_series.append(Series(name, first.t, first.loss))
            if first.thetas is not None:
                theta_series.append(Series(name, first.t, first.thetas[:, 0]))
        write_text_atomic(
            out / f"toy_{task}_summary.json",
            summary_to_json(aggregate(runs, spec.iterations)),
        )
        write_text_atomic(
            out / f"toy_{task}_loss.svg",
            render_line_chart(
                loss_series, title=f"{task}: loss vs iteration",
                xlabel="iteration", ylabel="loss", log_y=args.log_scale,
            ),
        )
        write_text_atomic(
            out / f"toy_{task}_theta.svg",
            render_line_chart(
                theta_series, title=f"{task}: theta vs iteration",
                xlabel="iteration", ylabel="theta",
            ),
        )
    return _divergence_exit(statuses, args.allow_divergence)


def cmd_rosenbrock(args) -> int:
    config = _apply_overrides(_load_config("rosenbrock", args.config), args)
    optimizers = _build_optimizers(config)
    out = Path(args.out)
    spec = ExperimentSpec(
        task=config["task"],
        optimizers=optimizers,
        iterations=int(config["iterations"]),
        seeds=tuple(config["seeds"]),
        theta0=np.array(config["theta0"], dtype=np.float64),
        record_params=True,
        lr_milestones=_milestones(config),
        dim=int(config["dim"]),
    )
    runs = run_experiment(spec, threads=resolve_threads())
    objective = get_objective(config["task"], dim=int(config["dim"]))
    target = np.array(objective.known_minima[0][0])
    statuses = []
    path_series = []
    for name, trajs in runs.items():
        for seed, traj in zip(spec.seeds, trajs):
            write_text_atomic(
                out / f"rosenbrock_{name}_s{seed}.csv", trajectory_to_csv(traj)
            )
            statuses.append(traj.status)
        first = trajs[0]
        if first.thetas is not None:
            path_series.append(Series(name, first.thetas[:, 0], first.thetas[:, 1]))

    def dist_threshold(traj):
        if traj.thetas is None:
            return traj.loss, 0.0
        dist = np.sqrt(np.sum((traj.thetas - target) ** 2, axis=1))
        return dist, 0.1

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
    write_text_atomic(
        out / "rosenbrock_overlay.svg",
        render_overlay(xs, ys, Z, path_series, title="Rosenbrock trajectories"),
    )
    return _divergence_exit(statuses, args.allow_divergence)


def cmd_mlp(args) -> int:
    config = _apply_overrides(_load_config("mlp", args.config), args)
    optimizers = _build_optimizers(config)
    out = Path(args.out)
    mlp_spec = MlpSpec(
        layer_sizes=tuple(int(n) for n in config["layer_sizes"]),
        activation=config["activation"],
        loss=config["loss"],
    )
    blobs = config["blobs"]
    epochs = int(config["epochs"])
    batch = int(config["batch_size"])
    seeds = [int(s) for s in config["seeds"]]
    summary = {}
    statuses = []
    for name, opt_config in optimizers:
        finals, accs, stats = [], [], []
        for seed in seeds:
            rng = make_rng(seed)
            data = make_blobs(
                rng, int(blobs["n_per_class"]), int(blobs["classes"]),
                float(blobs["separation"]),
            )
            status = "ok"
            try:
                _params, records = train_mlp(mlp_spec, data, opt_config, epochs, batch, rng)
            except (NonFiniteStepError, NonFiniteLossError) as err:
                status = f"aborted: {err}"
                records = []
            lines = ["epoch,mean_batch_loss,train_loss,train_accuracy"]
            for rec in records:
                lines.append(
                    ",".join(
                        [
                            str(rec.epoch),
                            fmt_float(rec.mean_batch_loss),
                            fmt_float(rec.train_loss),
                            fmt_float(rec.train_accuracy),
                        ]
                    )
                )
            write_text_atomic(out / f"mlp_{name}_s{seed}.csv", "\n".join(lines) + "\n")
            if records:
                finals.append(records[-1].train_loss)
                accs.append(records[-1].train_accuracy)
            stats.append(status)
            statuses.append(status)
        summary[name] = {
            "final_train_loss": finals,
            "final_train_accuracy": accs,
            "mean_final_loss": float(np.mean(finals)) if finals else None,
            "std_final_loss": (
                float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
            ),
            "mean_final_accuracy": float(np.mean(accs)) if accs else None,
            "std_final_accuracy": (
                float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
            ),
            "status": stats,
        }
    write_text_atomic(out / "mlp_summary.json", summary_to_json(summary))
    return _divergence_exit(statuses, args.allow_divergence)


def cmd_regret(args) -> int:
    config = _apply_overrides(_load_config("regret", args.config), args)
    optimizers = _build_optimizers(config)
    out = Path(args.out)
    dim = int(config["dim"])
    spec = ExperimentSpec(
        task=config["task"],
        optimizers=optimizers,
        iterations=int(config["iterations"]),
        seeds=tuple(config["seeds"]),
        theta0=config["theta0"],
        record_params=bool(config["record_params"]),
        lr_milestones=_milestones(config),
        dim=dim,
    )
    runs = run_experiment(spec, threads=resolve_threads())
    objective = get_objective(config["task"], dim=dim)
    statuses = []
    series = []
    summary = {}
    for name, trajs in runs.items():
        for seed, traj in zip(spec.seeds, trajs):
            statuses.append(traj.status)
            record = compute_regret(traj, objective)
            write_text_atomic(out / f"regret_{name}_s{seed}.csv", regret_to_csv(record))
            if seed == spec.seeds[0]:
                series.append(Series(name, record.t, record.average))
                summary[name] = {
                    "final_avg_regret": float(record.average[-1]),
                    "theta_star_source": record.theta_star_source,
                    "status": traj.status,
                }
    write_text_atomic(
        out / "regret_avg.svg",
        render_line_chart(
            series, title="average regret vs t", xlabel="t", ylabel="R(t)/t",
            log_x=True, log_y=True,
        ),
    )
    write_text_atomic(out / "regret_summary.json", summary_to_json(summary))
    return _divergence_exit(statuses, args.allow_divergence)


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

    def common(p, with_plot_files=False):
        if with_plot_files:
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
        p.add_argument("--log-scale", action="store_true", help="log-scale loss axes")

    for name, fn in (
        ("toy", cmd_toy),
        ("rosenbrock", cmd_rosenbrock),
        ("mlp", cmd_mlp),
        ("regret", cmd_regret),
        ("gradcheck", cmd_gradcheck),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("plot")
    common(p, with_plot_files=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
