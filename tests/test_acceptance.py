"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Criteria 1-4 and 8-9 drive the real CLI pipelines at their default protocols
and read back the emitted artifacts; 5-7 exercise the library directly.
Criterion 10 repeats the pipelines and compares CSV bytes.

Four clauses are known not to hold for this implementation at the shared
default rates (see README): criterion 1's angulargrad_cos clause, criterion
3's sgdm clause, criterion 4 entirely, and criterion 9's loss-ratio clause.
Those tests fail honestly with the measured numbers in the failure message;
they are not weakened to pass.
"""

import json
import math

import numpy as np
import pytest

from angular_optim.cli import main as cli_main
from angular_optim.harness import Trajectory
from angular_optim.numerics import make_rng
from angular_optim.optimizers import (
    OptimizerConfig,
    angular_coefficient,
    init_state,
    step,
)
from test_harness import tail_oscillation

PHI_COS_MAX = 0.8807970779778824  # 0.5 * tanh(1) + 0.5

TOY_NAMES = ("sgdm", "adam", "diffgrad", "adabelief", "angulargrad_cos", "angulargrad_tan")
ROSEN_NAMES = (
    "sgd", "rmsprop", "adam", "adamw", "diffgrad", "adabelief",
    "angulargrad_cos", "angulargrad_tan",
)
MLP_NAMES = ("adam", "adamw", "diffgrad", "adabelief", "angulargrad_cos", "angulargrad_tan")
AG_NAMES = ("angulargrad_cos", "angulargrad_tan")


def report(n: int, label: str, failures: list[str], extra: str = "") -> None:
    if failures:
        print(f"CRITERION {n}: FAIL - {label}: " + "; ".join(failures))
    else:
        print(f"CRITERION {n}: PASS - {label}" + (f" ({extra})" if extra else ""))
    assert not failures, f"criterion {n} ({label}): " + "; ".join(failures)


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {
        name: np.array([float(r[i]) for r in rows])
        for i, name in enumerate(header)
    }


def rebuild_trajectory(data: dict[str, np.ndarray]) -> Trajectory:
    n = data["t"].size
    thetas = data["theta_0"].reshape(n, 1) if "theta_0" in data else None
    return Trajectory(
        t=data["t"].astype(np.int64),
        loss=data["loss"],
        alpha=data["alpha"],
        phi_mean=data["phi_mean"],
        step_norm=data["step_norm"],
        thetas=thetas,
        final_params=thetas[-1] if thetas is not None and n else np.zeros(1),
    )


def run_pipeline(command: str, out_dir) -> None:
    code = cli_main([command, "--out", str(out_dir)])
    assert code == 0, f"{command} pipeline exited with {code}"


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_run")
    run_pipeline("toy", out)
    return out


@pytest.fixture(scope="module")
def rosen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("rosen_run")
    run_pipeline("rosenbrock", out)
    return out


@pytest.fixture(scope="module")
def regret_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("regret_run")
    run_pipeline("regret", out)
    return out


@pytest.fixture(scope="module")
def mlp_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mlp_run")
    run_pipeline("mlp", out)
    return out


def toy_finals(toy_dir, task: str) -> dict[str, tuple[float, float]]:
    out = {}
    for name in TOY_NAMES:
        data = read_trajectory_csv(toy_dir / f"toy_{task}_{name}_s0.csv")
        out[name] = (float(data["theta_0"][-1]), float(data["loss"][-1]))
    return out


def test_criterion_01_f1_separation(toy_dir):
    measured = toy_finals(toy_dir, "f1")
    failures = []
    for name in ("adam", "adabelief"):
        theta, loss = measured[name]
        if not (abs(theta - 0.2) <= 0.05 and abs(loss - 0.05) <= 0.01):
            failures.append(
                f"{name} theta={theta:.5f} loss={loss:.5f}"
                " (want theta within 0.05 of 0.2, loss within 0.01 of 0.05)"
            )
    for name in ("sgdm", "diffgrad", "angulargrad_cos", "angulargrad_tan"):
        theta, loss = measured[name]
        if not (loss < 1e-3 and abs(theta + 0.3) <= 0.05):
            failures.append(
                f"{name} theta={theta:.5f} loss={loss:.3e}"
                " (want loss < 1e-3, theta within 0.05 of -0.3)"
            )
    detail = ", ".join(f"{k}: theta={v[0]:.4f}" for k, v in measured.items())
    report(1, "f1 separation", failures, extra=detail)


def test_criterion_02_f2_separation(toy_dir):
    measured = toy_finals(toy_dir, "f2")
    failures = []
    for name in ("angulargrad_cos", "angulargrad_tan", "diffgrad"):
        _, loss = measured[name]
        if not loss < 1e-2:
            failures.append(f"{name} loss={loss:.3e} (want < 1e-2)")
    for name in ("adam", "sgdm"):
        _, loss = measured[name]
        if loss < 1e-2:
            failures.append(f"{name} loss={loss:.3e} (want >= 1e-2)")
    detail = ", ".join(f"{k}: loss={v[1]:.3e}" for k, v in measured.items())
    report(2, "f2 separation", failures, extra=detail)


def test_criterion_03_f3_tail_smoothness(toy_dir):
    failures = []
    tails = {}
    for name in TOY_NAMES:
        data = read_trajectory_csv(toy_dir / f"toy_f3_{name}_s0.csv")
        loss = float(data["loss"][-1])
        tails[name] = tail_oscillation(rebuild_trajectory(data), 50)
        if not loss < 1e-2:
            failures.append(f"{name} loss={loss:.3e} (want < 1e-2)")
    for name in AG_NAMES:
        if not tails[name] < tails["adam"]:
            failures.append(
                f"{name} tail_oscillation={tails[name]:.3e}"
                f" not < adam's {tails['adam']:.3e}"
            )
    detail = ", ".join(f"{k}: tail={v:.2e}" for k, v in tails.items())
    report(3, "f3 tail smoothness", failures, extra=detail)


def test_criterion_04_rosenbrock_reach(rosen_dir):
    dists = {}
    for name in ROSEN_NAMES:
        data = read_trajectory_csv(rosen_dir / f"rosenbrock_{name}_s0.csv")
        dists[name] = math.hypot(
            float(data["theta_0"][-1]) - 1.0, float(data["theta_1"][-1]) - 1.0
        )
    failures = []
    for name in ("adamw", "angulargrad_cos", "angulargrad_tan"):
        if not dists[name] <= 0.1:
            failures.append(f"{name} dist={dists[name]:.3f} (want <= 0.1)")
    for name in ("sgd", "rmsprop"):
        if not dists[name] > 0.5:
            failures.append(f"{name} dist={dists[name]:.3f} (want > 0.5)")
    baselines = [n for n in ROSEN_NAMES if n not in AG_NAMES]
    baseline_converged = any(dists[n] <= 0.5 for n in ("sgd", "rmsprop"))
    if failures and baseline_converged:
        # degraded form: every angular variant at least matches every baseline
        degraded = []
        for ag in AG_NAMES:
            for base in baselines:
                if not dists[ag] <= dists[base]:
                    degraded.append(
                        f"{ag} dist={dists[ag]:.3f} > {base} dist={dists[base]:.3f}"
                    )
        if not degraded:
            failures = []
        else:
            failures.append("degraded form also fails: " + "; ".join(degraded[:4]))
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in dists.items())
    report(4, "rosenbrock reach", failures, extra=detail)


def test_criterion_05_adam_reduction():
    failures = []
    for seed in range(10):
        rng = make_rng(seed)
        # lambda1 = 0, lambda2 = 1 holds phi at exactly 1
        cfg_ag = OptimizerConfig(
            rule="angulargrad", alpha=1e-3, lambda1=0.0, lambda2=1.0
        )
        cfg_ad = OptimizerConfig(rule="adam", alpha=1e-3)
        state_ag = init_state(cfg_ag, 64)
        state_ad = init_state(cfg_ad, 64)
        p_ag = np.zeros(64)
        p_ad = np.zeros(64)
        for t in range(1000):
            g = rng.normal(size=64)
            p_ag = step(state_ag, cfg_ag, p_ag, g)
            p_ad = step(state_ad, cfg_ad, p_ad, g)
            if not np.array_equal(p_ag, p_ad):
                failures.append(f"seed {seed} diverges at step {t + 1}")
                break
        if failures:
            break
    report(5, "phi = 1 reduces to adam bitwise", failures,
           extra="10 seeds x 1000 steps, dim 64")


def test_criterion_06_phi_bounds():
    rng = make_rng(0)
    a_min = rng.uniform(0.0, math.pi / 2.0, size=10**6)
    failures = []
    phis = {}
    for variant in ("cos", "tan"):
        phi = angular_coefficient(a_min, variant, 0.5, 0.5)
        phis[variant] = phi
        if not (phi.min() >= 0.5 and phi.max() <= 1.0):
            failures.append(
                f"{variant} range [{phi.min():.6f}, {phi.max():.6f}] outside [0.5, 1]"
            )
    gap = abs(float(phis["cos"].max()) - PHI_COS_MAX)
    if not gap <= 1e-12:
        failures.append(f"cos max misses 0.5*tanh(1)+0.5 by {gap:.3e}")
    order = np.sort(a_min)
    if not np.all(np.diff(angular_coefficient(order, "cos", 0.5, 0.5)) <= 0.0):
        failures.append("cos variant not non-increasing in a_min")
    if not np.all(np.diff(angular_coefficient(order, "tan", 0.5, 0.5)) >= 0.0):
        failures.append("tan variant not non-decreasing in a_min")
    report(6, "phi bounds and monotonicity", failures,
           extra=f"1e6 samples, cos-max gap {gap:.2e}")


def test_criterion_07_gradient_oracle(tmp_path):
    code = cli_main(["gradcheck", "--out", str(tmp_path)])
    failures = [] if code == 0 else [f"gradcheck exited with {code}"]
    report(7, "gradient oracle suite", failures,
           extra="f1-f3, rosenbrock N in {2,5,10}, quadratic, mlp [4,8,8,3]")


def test_criterion_08_average_regret_decays(regret_dir):
    failures = []
    details = []
    for name in AG_NAMES:
        data = {}
        lines = (regret_dir / f"regret_{name}_s0.csv").read_text().splitlines()[1:]
        for line in lines:
            t, _, avg = line.split(",")
            data[int(t)] = float(avg)
        for T in (250, 500, 1000):
            if not data[2 * T] < data[T]:
                failures.append(
                    f"{name}: R/t at {2 * T} ({data[2 * T]:.4e})"
                    f" not < at {T} ({data[T]:.4e})"
                )
        ratio = data[4000] / data[250]
        details.append(f"{name}: R/t(4000)/R/t(250)={ratio:.3f}")
        if not ratio < 0.25:
            failures.append(f"{name}: ratio {ratio:.3f} (want < 0.25)")
    report(8, "average regret decays", failures, extra=", ".join(details))


def test_criterion_09_mlp_training(mlp_dir):
    summary = json.loads((mlp_dir / "mlp_summary.json").read_text())
    failures = []
    for name in MLP_NAMES:
        acc = summary[name]["mean_final_accuracy"]
        if not acc >= 0.95:
            failures.append(f"{name} mean accuracy {acc:.4f} (want >= 0.95)")
    adam_loss = summary["adam"]["mean_final_loss"]
    details = [f"adam loss {adam_loss:.4e}"]
    for name in AG_NAMES:
        loss = summary[name]["mean_final_loss"]
        details.append(f"{name} loss {loss:.4e} ({loss / adam_loss:.2f}x)")
        if not loss <= 1.1 * adam_loss:
            failures.append(
                f"{name} mean final loss {loss:.4e} is"
                f" {loss / adam_loss:.2f}x adam's {adam_loss:.4e} (want <= 1.1x)"
            )
    report(9, "mlp accuracy and loss ratio", failures, extra=", ".join(details))


def test_criterion_10_determinism(
    toy_dir, rosen_dir, regret_dir, mlp_dir, tmp_path_factory
):
    failures = []
    compared = 0
    for command, first in (
        ("toy", toy_dir),
        ("rosenbrock", rosen_dir),
        ("regret", regret_dir),
        ("mlp", mlp_dir),
    ):
        again = tmp_path_factory.mktemp(f"{command}_again")
        code = cli_main([command, "--out", str(again)])
        if code != 0:
            failures.append(f"{command} rerun exited with {code}")
            continue
        for path in sorted(first.glob("*.csv")):
            twin = again / path.name
            if not twin.exists():
                failures.append(f"{command}: {path.name} missing on rerun")
            elif twin.read_bytes() != path.read_bytes():
                failures.append(f"{command}: {path.name} differs between runs")
            else:
                compared += 1
    report(10, "byte-identical repeat runs", failures,
           extra=f"{compared} CSV artifacts compared")
