"""End-to-end CLI runs: artifacts, exit codes, overrides, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from angular_optim import cli, models, objectives
from angular_optim.cli import main


def run(*argv) -> int:
    return main(list(argv))


def toy_config(tmp_path, **extra):
    cfg = {"tasks": ["f1"], "iterations": 40}
    cfg.update(extra)
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestToy:
    def test_full_default_set(self, tmp_path):
        out = tmp_path / "a"
        code = run("toy", "--config", toy_config(tmp_path), "--out", str(out))
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        csvs = [n for n in names if n.endswith(".csv")]
        assert len(csvs) == 6  # six optimizers, one seed
        assert "toy_f1_summary.json" in names
        assert "toy_f1_loss.svg" in names
        assert "toy_f1_theta.svg" in names
        header = (out / "toy_f1_adam_s0.csv").read_text().splitlines()[0]
        assert header == "t,loss,alpha,phi_mean,step_norm,theta_0"

    def test_row_count_matches_iterations(self, tmp_path):
        out = tmp_path / "a"
        run("toy", "--config", toy_config(tmp_path), "--out", str(out), "--iters", "25")
        lines = (out / "toy_f1_adam_s0.csv").read_text().splitlines()
        assert len(lines) == 26

    def test_optimizer_filter_and_seeds(self, tmp_path):
        out = tmp_path / "a"
        code = run(
            "toy", "--config", toy_config(tmp_path), "--out", str(out),
            "--optimizers", "adam,angulargrad_cos", "--seeds", "0,1",
        )
        assert code == 0
        csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
        assert csvs == [
            "toy_f1_adam_s0.csv",
            "toy_f1_adam_s1.csv",
            "toy_f1_angulargrad_cos_s0.csv",
            "toy_f1_angulargrad_cos_s1.csv",
        ]

    def test_summary_fields(self, tmp_path):
        out = tmp_path / "a"
        run("toy", "--config", toy_config(tmp_path), "--out", str(out),
            "--optimizers", "adam")
        summary = json.loads((out / "toy_f1_summary.json").read_text())
        entry = summary["adam"]
        for key in ("final_loss", "best_loss", "iters_to_threshold", "mean", "std", "status"):
            assert key in entry
        assert entry["status"] == ["ok"]

    def test_unknown_optimizer_exits_2(self, tmp_path):
        out = tmp_path / "a"
        code = run("toy", "--config", toy_config(tmp_path), "--out", str(out),
                   "--optimizers", "lion")
        assert code == 2
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tasks": ["f1"], "step_size": 0.1}))
        assert run("toy", "--config", str(bad), "--out", str(tmp_path / "a")) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("toy", "--config", str(bad), "--out", str(tmp_path / "a")) == 2

    def test_bad_seeds_exits_2(self, tmp_path):
        code = run("toy", "--config", toy_config(tmp_path),
                   "--out", str(tmp_path / "a"), "--seeds", "zero")
        assert code == 2

    def test_bad_iters_exits_2(self, tmp_path):
        code = run("toy", "--config", toy_config(tmp_path),
                   "--out", str(tmp_path / "a"), "--iters", "0")
        assert code == 2

    def test_bad_optimizer_fields_exit_2(self, tmp_path):
        cfg = toy_config(tmp_path, optimizers={"adam": {"rule": "adam", "alpha": -1.0}})
        assert run("toy", "--config", cfg, "--out", str(tmp_path / "a")) == 2

    @pytest.mark.parametrize("flag", ["--seeds", "--optimizers"])
    def test_empty_list_flag_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "a"
        assert run("toy", "--config", toy_config(tmp_path), "--out", str(out),
                   "--iters", "5", flag, "") == 2
        assert f"empty {flag} list" in capsys.readouterr().err
        assert not out.exists()

    def test_task_that_is_not_1d_exits_2_before_any_task_runs(self, tmp_path, capsys):
        out = tmp_path / "a"
        cfg = toy_config(tmp_path, tasks=["f1", "rosenbrock"])
        assert run("toy", "--config", cfg, "--out", str(out)) == 2
        assert "toy tasks must be 1-D, not rosenbrock" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run("toy", "--config", toy_config(tmp_path), "--out", str(out),
                   "--optimizers", "adam", "--seeds", "0,1,0") == 2
        assert "seed 0 is listed twice" in capsys.readouterr().err
        cfg = toy_config(tmp_path, seeds=[3, 3])
        assert run("toy", "--config", cfg, "--out", str(out)) == 2
        assert "seed 3 is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_optimizer_exits_2(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run("toy", "--config", toy_config(tmp_path), "--out", str(out),
                   "--optimizers", "adam,sgdm,adam") == 2
        assert "optimizer 'adam' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_overflow_aborts_only_that_run(self, tmp_path):
        # sgd at alpha 50 on f1 overflows a Python-float ** in f1 itself
        cfg = toy_config(tmp_path, iterations=300, optimizers={
            "sgd_big": {"rule": "sgd", "alpha": 50.0},
            "adam": {"rule": "adam", "alpha": 0.1},
        })
        out = tmp_path / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("toy", "--config", cfg, "--out", str(out)) == 1
        summary = json.loads((out / "toy_f1_summary.json").read_text())
        assert summary["adam"]["status"] == ["ok"]
        assert summary["sgd_big"]["status"][0].startswith("aborted: non-finite ")
        assert (out / "toy_f1_sgd_big_s0.csv").exists()
        assert (out / "toy_f1_loss.svg").exists()

    def test_huge_constant_theta_charts_without_a_traceback(self, tmp_path):
        # sgd steps 1e200 to 8e199, where f1 overflows: one theta, 8e199,
        # whose range a pad of 0.5 cannot widen
        cfg = toy_config(tmp_path, theta0=[1e200],
                         optimizers={"sgd": {"rule": "sgd", "alpha": 0.1}})
        out = tmp_path / "a"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "angular_optim.cli", "toy", "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr == "warning: aborted: non-finite loss at iteration 1\n"
        chart = ET.fromstring((out / "toy_f1_theta.svg").read_text())
        (line,) = chart.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert line.get("points") == "312.00,233.00"  # the centre of the plot area

    def test_diverged_summary_is_strict_json(self, tmp_path):
        cfg = toy_config(tmp_path, iterations=300, optimizers={
            "sgd_big": {"rule": "sgd", "alpha": 50.0},
            "adam": {"rule": "adam", "alpha": 0.1},
        })
        out = tmp_path / "a"
        assert run("toy", "--config", cfg, "--out", str(out)) == 1

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "toy_f1_summary.json").read_text(), parse_constant=reject)
        assert summary["sgd_big"]["final_loss"] == [None]
        assert summary["sgd_big"]["mean"] is None
        assert summary["adam"]["mean"] == summary["adam"]["final_loss"][0]


# a command rejects a flag it would ignore: only toy and plot draw a loss
# axis, and gradcheck runs no optimizer and reads no config
@pytest.mark.parametrize("command,flag", [
    *(pytest.param(c, ["--log-scale"], id=c) for c in ["rosenbrock", "mlp", "regret", "gradcheck"]),
    *(pytest.param("gradcheck", f, id=f"gradcheck{f[0]}")
      for f in (["--iters", "5"], ["--optimizers", "adam"], ["--allow-divergence"],
                ["--config", "g.json"])),
])
def test_log_scale_only_where_it_acts(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run(command, *flag, "--out", str(tmp_path / "a"))
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


class TestRosenbrock:
    def rosen_config(self, tmp_path, **extra):
        cfg = {"iterations": 40, "grid": {"x_range": [-2.0, 2.0],
                                          "y_range": [-1.0, 3.0], "resolution": 11}}
        cfg.update(extra)
        path = tmp_path / "rosen.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_artifacts(self, tmp_path):
        out = tmp_path / "a"
        code = run("rosenbrock", "--config", self.rosen_config(tmp_path),
                   "--out", str(out), "--optimizers", "adam,sgd")
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "rosenbrock_adam_s0.csv",
            "rosenbrock_grid.csv",
            "rosenbrock_overlay.svg",
            "rosenbrock_sgd_s0.csv",
            "rosenbrock_summary.json",
        ]
        grid_lines = (out / "rosenbrock_grid.csv").read_text().splitlines()
        assert grid_lines[0] == "x,y,f"
        assert len(grid_lines) == 11 * 11 + 1
        ET.fromstring((out / "rosenbrock_overlay.svg").read_text())

    def test_divergence_exit_codes(self, tmp_path):
        cfg = self.rosen_config(
            tmp_path, optimizers={"sgd_hot": {"rule": "sgd", "alpha": 1.0}},
            iterations=200,
        )
        out = tmp_path / "a"
        assert run("rosenbrock", "--config", cfg, "--out", str(out)) == 1
        summary = json.loads((out / "rosenbrock_summary.json").read_text())
        assert summary["sgd_hot"]["status"][0].startswith("aborted")
        out2 = tmp_path / "b"
        assert run("rosenbrock", "--config", cfg, "--out", str(out2),
                   "--allow-divergence") == 0

    def test_diverged_distance_does_not_warn(self, tmp_path):
        # sgd's thetas reach ~6e155 before its loss turns inf; squaring them
        # for the distance-to-minimum threshold overflows
        cfg = self.rosen_config(
            tmp_path, iterations=300, lr_milestones=[[100, 2.0]],
            optimizers={
                "sgd": {"rule": "sgd", "alpha": 0.05},
                "ag": {"rule": "angulargrad", "alpha": 0.5, "hypergrad_omega": 0.001},
            },
        )
        out = tmp_path / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("rosenbrock", "--config", cfg, "--out", str(out)) == 1
        summary = json.loads((out / "rosenbrock_summary.json").read_text())
        assert summary["sgd"]["status"] == ["aborted: non-finite loss at iteration 5"]
        assert summary["sgd"]["iters_to_threshold"] == [301]

    @pytest.mark.parametrize("grid, message", [
        ({"x_range": [-2.0, 2.0], "y_range": [-1.0, 3.0], "resolution": 0}, "degenerate grid"),
        ({"x_range": [-2.0, 2.0], "y_range": [-1.0, 3.0], "resolution": 1}, "degenerate grid"),
        ({"x_range": [1.5, 1.5], "y_range": [-1.0, 3.0], "resolution": 11}, "degenerate grid"),
        ({"x_range": [-1e200, 1e200], "y_range": [-1.0, 3.0], "resolution": 11},
         "grid values must be finite"),
    ], ids=["resolution-0", "resolution-1", "zero-width", "overflowing"])
    def test_bad_grid_exits_2_before_running(self, tmp_path, capsys, grid, message):
        out = tmp_path / "a"
        cfg = self.rosen_config(tmp_path, grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("rosenbrock", "--config", cfg, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_uniform_theta0(self, tmp_path):
        cfg = self.rosen_config(
            tmp_path, theta0={"rule": "uniform", "low": -1.5, "high": 1.5}
        )
        out = tmp_path / "a"
        assert run("rosenbrock", "--config", cfg, "--out", str(out),
                   "--optimizers", "adam") == 0
        header = (out / "rosenbrock_adam_s0.csv").read_text().splitlines()[0]
        assert header.endswith(",theta_0,theta_1")


class TestMlp:
    def mlp_config(self, tmp_path):
        cfg = {
            "blobs": {"classes": 3, "n_per_class": 20, "separation": 4.0},
            "layer_sizes": [2, 8, 3],
            "epochs": 2,
            "batch_size": 16,
            "seeds": [0],
        }
        path = tmp_path / "mlp.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_artifacts_and_summary(self, tmp_path):
        out = tmp_path / "a"
        code = run("mlp", "--config", self.mlp_config(tmp_path), "--out", str(out),
                   "--optimizers", "adam,angulargrad_cos")
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "mlp_adam_s0.csv",
            "mlp_angulargrad_cos_s0.csv",
            "mlp_summary.json",
        ]
        lines = (out / "mlp_adam_s0.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_batch_loss,train_loss,train_accuracy"
        assert len(lines) == 3
        summary = json.loads((out / "mlp_summary.json").read_text())
        entry = summary["adam"]
        assert len(entry["final_train_loss"]) == 1
        assert entry["status"] == ["ok"]
        assert 0.0 <= entry["mean_final_accuracy"] <= 1.0

    def test_divergence_exit_codes(self, tmp_path):
        cfg = tmp_path / "hot.json"
        cfg.write_text(json.dumps({
            "optimizers": {"sgd": {"rule": "sgd", "alpha": 1e6}},
            "seeds": [0],
            "epochs": 2,
        }))
        out = tmp_path / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("mlp", "--config", str(cfg), "--out", str(out)) == 1
            assert run("mlp", "--config", str(cfg), "--out", str(tmp_path / "b"),
                       "--allow-divergence") == 0
        summary = json.loads((out / "mlp_summary.json").read_text())
        assert summary["sgd"]["status"][0].startswith("aborted: ")
        # a bad value that train_mlp itself rejects is still a config error
        cfg.write_text(json.dumps({"seeds": [0], "batch_size": 0}))
        assert run("mlp", "--config", str(cfg), "--out", str(tmp_path / "c")) == 2

    def test_aborted_seed_keeps_its_epochs_and_its_summary_slot(self, tmp_path):
        # HGD drives seed 1's rate up until a minibatch loss overflows in epoch 45
        cfg = tmp_path / "hgd.json"
        cfg.write_text(json.dumps({"seeds": [0, 1], "epochs": 50, "optimizers": {
            "hgd": {"rule": "adam", "alpha": 0.01, "hypergrad_omega": 0.5}}}))
        out = tmp_path / "a"
        assert run("mlp", "--config", str(cfg), "--out", str(out)) == 1
        entry = json.loads((out / "mlp_summary.json").read_text())["hgd"]
        assert entry["status"] == ["ok", "aborted: non-finite loss at epoch 45, step 1283"]
        for metric in ("loss", "accuracy"):
            finals = entry[f"final_train_{metric}"]
            assert len(finals) == 2 and finals[0] is not None and finals[1] is None
            assert entry[f"mean_final_{metric}"] is None
        assert len((out / "mlp_hgd_s1.csv").read_text().splitlines()) == 1 + 44

    @pytest.mark.parametrize("empty", [{"optimizers": {}}, {"seeds": []}])
    def test_no_runs_exits_2(self, tmp_path, capsys, empty):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps(empty))
        assert run("mlp", "--config", str(cfg), "--out", str(tmp_path / "a")) == 2
        assert f"{next(iter(empty))} must not be empty" in capsys.readouterr().err

    def test_more_classes_than_outputs_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({
            "blobs": {"classes": 4, "n_per_class": 5, "separation": 4.0},
            "seeds": [0],
            "epochs": 1,
        }))
        out = tmp_path / "a"
        assert run("mlp", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "4 classes" in err and "output layer has 3 units" in err
        assert not out.exists()

    def test_epochs_override(self, tmp_path):
        out = tmp_path / "a"
        run("mlp", "--config", self.mlp_config(tmp_path), "--out", str(out),
            "--optimizers", "adam", "--iters", "3")
        lines = (out / "mlp_adam_s0.csv").read_text().splitlines()
        assert len(lines) == 4


class TestRegret:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "a"
        code = run("regret", "--out", str(out), "--iters", "400",
                   "--optimizers", "adam")
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["regret_adam_s0.csv", "regret_avg.svg", "regret_summary.json"]
        lines = (out / "regret_adam_s0.csv").read_text().splitlines()
        assert lines[0] == "t,regret,avg_regret"
        assert len(lines) == 401
        first_avg = float(lines[1].split(",")[2])
        last_avg = float(lines[-1].split(",")[2])
        assert last_avg < first_avg
        summary = json.loads((out / "regret_summary.json").read_text())
        assert summary["adam"]["theta_star_source"] == "known_minimum"

    def test_abort_on_first_step(self, tmp_path):
        cfg = tmp_path / "hot.json"
        cfg.write_text(json.dumps({
            "iterations": 10,
            "theta0": [1e200] * 10,
            "optimizers": {"sgd": {"rule": "sgd", "alpha": 1e200}},
        }))
        out = tmp_path / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("regret", "--config", str(cfg), "--out", str(out)) == 1
            assert run("regret", "--config", str(cfg), "--out", str(tmp_path / "b"),
                       "--allow-divergence") == 0
        summary = json.loads((out / "regret_summary.json").read_text())
        assert summary["sgd"]["final_avg_regret"] == [None]
        assert summary["sgd"]["status"][0].startswith(
            "aborted: non-finite parameter at iteration 1")
        assert (out / "regret_sgd_s0.csv").read_text() == "t,regret,avg_regret\n"

    def test_hgd_ascent_aborts(self, tmp_path):
        # the hypergradient rate reads 0.1, 133.2, then below 0, which would
        # step uphill: the run stops before that step
        cfg = tmp_path / "hgd.json"
        cfg.write_text(json.dumps({"iterations": 5, "optimizers": {
            "sgd": {"rule": "sgd", "alpha": 0.1, "hypergrad_omega": 10}}}))
        out = tmp_path / "a"
        assert run("regret", "--config", str(cfg), "--out", str(out)) == 1
        summary = json.loads((out / "regret_summary.json").read_text())
        assert summary["sgd"]["status"] == ["aborted: non-positive learning rate at iteration 3"]
        assert len((out / "regret_sgd_s0.csv").read_text().splitlines()) == 3

    def test_summary_lists_every_seed(self, tmp_path, capsys):
        # seed 2 runs all 3717 iterations and seed 5 aborts on the last one
        cfg = tmp_path / "two.json"
        cfg.write_text(json.dumps({"seeds": [2, 5], "iterations": 3717,
                                   "optimizers": {"sgd": {"rule": "sgd", "alpha": 1.05}}}))
        out = tmp_path / "a"
        assert run("regret", "--config", str(cfg), "--out", str(out)) == 1
        assert "aborted: non-finite loss at iteration 3716" in capsys.readouterr().err
        summary = json.loads((out / "regret_summary.json").read_text())["sgd"]
        assert summary["status"] == ["ok", "aborted: non-finite loss at iteration 3716"]
        assert len(summary["final_avg_regret"]) == 2

    # json reads NaN and Infinity, which the config reader rejects as numbers
    @pytest.mark.parametrize("divisor, message", [
        (-1.0, "lr_milestones divisors must be finite and > 0"),
        (0.0, "lr_milestones divisors must be finite and > 0"),
        (float("inf"), "non-finite number Infinity in config"),
        (float("nan"), "non-finite number NaN in config"),
    ], ids=["-1.0", "0.0", "inf", "nan"])
    def test_bad_milestone_divisor_exits_2(self, tmp_path, capsys, divisor, message):
        cfg = tmp_path / "ms.json"
        cfg.write_text(json.dumps({"iterations": 20, "lr_milestones": [[10, divisor]]}))
        out = tmp_path / "a"
        assert run("regret", "--config", str(cfg), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("milestones", [[[0, 2.0]], [[-5, 2.0]], [[10, 2.0], [0, 2.0]]],
                             ids=["0", "-5", "after-a-valid-one"])
    def test_milestone_iteration_below_1_exits_2(self, tmp_path, capsys, milestones):
        cfg = tmp_path / "ms.json"
        cfg.write_text(json.dumps({"iterations": 20, "lr_milestones": milestones}))
        out = tmp_path / "a"
        assert run("regret", "--config", str(cfg), "--out", str(out)) == 2
        assert "lr_milestones iterations must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_milestone_past_the_budget_is_allowed(self, tmp_path):
        cfg = tmp_path / "ms.json"
        cfg.write_text(json.dumps({"iterations": 20, "lr_milestones": [[99, 2.0]]}))
        assert run("regret", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("rosenbrock",
         {"grid": {"x_range": [-2.0, 2.0], "y_range": [-1.0, 3.0], "resolutoin": 5}},
         "grid.resolutoin"),
        ("mlp",
         {"blobs": {"classes": 3, "n_per_class": 20, "seperation": 4.0}},
         "blobs.seperation"),
    ],
    ids=["rosenbrock-grid", "mlp-blobs"],
)
def test_unknown_nested_config_key_exits_2(tmp_path, capsys, command, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "a"
    assert run(command, "--config", str(path), "--out", str(out)) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


# a protocol fixes its own run shape: toy and rosenbrock always record
# parameters, regret never does, and rosenbrock is always the 2-D objective
@pytest.mark.parametrize("command, key, value", [
    ("toy", "record_params", False),
    ("rosenbrock", "record_params", False),
    ("regret", "record_params", True),
    ("rosenbrock", "task", "rosenbrock"),
    ("rosenbrock", "dim", 5),
])
def test_retired_config_key_exits_2(tmp_path, capsys, command, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value, "iterations": 5}))
    out = tmp_path / "a"
    assert run(command, "--config", str(path), "--out", str(out)) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_empty_optimizer_entry_runs_with_all_defaults(tmp_path):
    """An optimizer given as {} is OptimizerConfig's defaults, which are Adam's."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"iterations": 5,
                                "optimizers": {"plain": {}, "adam": {"rule": "adam"}}}))
    out = tmp_path / "a"
    assert run("regret", "--config", str(path), "--out", str(out)) == 0
    assert (out / "regret_plain_s0.csv").read_text() == (out / "regret_adam_s0.csv").read_text()


# a value without the JSON type of its default (a float or a bool for an
# integer, a bool or a string for a number, a string for a bool), an empty list
# whose default is not, a key its default lacks and any non-finite number (json
# reads NaN, Infinity and 1e400 as floats) exit 2 before anything is written or
# printed
@pytest.mark.parametrize("command, text, message", [
    ("mlp", '{"seeds": [0, 0.5]}', "seeds[1] must be an integer, not 0.5"),
    ("toy", '{"seeds": [0.5]}', "seeds[0] must be an integer, not 0.5"),
    ("regret", '{"iterations": 2.5}', "iterations must be an integer, not 2.5"),
    ("toy", '{"iterations": true}', "iterations must be an integer, not True"),
    ("mlp", '{"epochs": 2.0}', "epochs must be an integer, not 2.0"),
    ("mlp", '{"batch_size": 16.5}', "batch_size must be an integer, not 16.5"),
    ("mlp", '{"layer_sizes": [2, 4.0, 3]}', "layer_sizes[1] must be an integer, not 4.0"),
    ("mlp", '{"blobs": {"classes": 3.0, "n_per_class": 20, "separation": 4.0}}',
     "blobs.classes must be an integer, not 3.0"),
    ("rosenbrock", '{"grid": {"x_range": [-2, 2], "y_range": [-1, 3], "resolution": 5.5}}',
     "grid.resolution must be an integer, not 5.5"),
    ("regret", '{"dim": 3.0}', "dim must be an integer, not 3.0"),
    ("regret", '{"theta0": {"rule": "uniform", "low": -1.0, "high": 1.0, "dim": 10.0}}',
     "unknown config key 'theta0.dim'"),
    ("regret", '{"lr_milestones": [[1.5, 2.0]]}',
     "lr_milestones items must be [integer, number] pairs, not [1.5, 2.0]"),
    ("regret", '{"optimizers": {"adam": {"rule": "adam", "epsilon": Infinity}}}',
     "non-finite number Infinity in config"),
    ("toy", '{"theta0": [NaN]}', "non-finite number NaN in config"),
    ("toy", '{"optimizers": {"adam": {"rule": "adam", "alpha": 1e400}}}',
     "non-finite number 1e400 in config"),
    ("toy", '{"seeds": 5}', "seeds must be a list"),
    ("toy", '{"seeds": {"a": 1}}', "seeds must be a list"),
    ("toy", '{"tasks": 5}', "tasks must be a list"),
    ("toy", '{"tasks": "f1"}', "tasks must be a list"),
    ("mlp", '{"layer_sizes": 5}', "layer_sizes must be a list"),
    ("toy", '{"optimizers": 5}', "optimizers must be an object"),
    ("mlp", '{"optimizers": []}', "optimizers must be an object"),
    ("rosenbrock", '{"grid": 5}', "grid must be an object"),
    ("mlp", '{"blobs": 5}', "blobs must be an object"),
    ("rosenbrock", '{"grid": {"x_range": 5, "y_range": [-1, 3], "resolution": 5}}',
     "grid.x_range must be a list"),
    ("toy", '{"tasks": []}', "tasks must not be empty"),
    ("regret", '{"task": ["f1"]}', "task must be a string, not ['f1']"),
    ("regret", '{"task": {"a": 1}}', "task must be a string, not {'a': 1}"),
    ("toy", '{"tasks": [["f1"]]}', "tasks[0] must be a string, not ['f1']"),
    ("toy", '{"optimizers": {"adam": {"rule": "adam", "alpha": true}}}',
     "optimizers.adam.alpha must be a number, not True"),
    ("mlp", '{"blobs": {"classes": 3, "n_per_class": 20, "separation": true}}',
     "blobs.separation must be a number, not True"),
    ("mlp", '{"blobs": {"classes": 3, "n_per_class": 20, "separation": "4"}}',
     "blobs.separation must be a number, not '4'"),
    ("toy", '{"theta0": [true]}', "theta0[0] must be a number, not True"),
    ("regret", '{"lr_milestones": [[10, true]]}',
     "lr_milestones items must be [integer, number] pairs, not [10, True]"),
    ("toy", '{"optimizers": {"gc": {"rule": "adam", "gc_enabled": "false"}}}',
     "optimizers.gc.gc_enabled must be a boolean, not 'false'"),
    ("toy", '{"optimizers": {"ag": {"rule": "angulargrad", "lambda1": "0.5"}}}',
     "optimizers.ag.lambda1 must be a number, not '0.5'"),
    ("regret", '{"theta0": {"rule": "uniform", "low": -1.0, "high": 1.0, "typo": 3}}',
     "unknown config key 'theta0.typo'"),
    ("regret", '{"theta0": {"rule": "uniform", "low": -1.0, "high": 1.0, "dim": 10}}',
     "unknown config key 'theta0.dim'"),
    ("toy", '{"iterations": 6, "lr_milestones": [[5, 2.0], [5, 3.0]], '
            '"optimizers": {"sgd": {"rule": "sgd", "alpha": 0.1}}}',
     "lr_milestones iteration 5 is listed twice"),
    ("rosenbrock", '{"grid": {"x_range": [-2, 2], "y_range": [-1, 3]}}',
     "missing config key 'grid.resolution' for command 'rosenbrock'"),
    ("mlp", '{"blobs": {"classes": 3, "n_per_class": 20}}',
     "missing config key 'blobs.separation' for command 'mlp'"),
    ("regret", '{"theta0": {"rule": "uniform", "high": 1.0}}',
     "missing config key 'theta0.low' for command 'regret'"),
    ("toy", '{"theta0": {"rule": "uniform", "low": -1.0}}',
     "missing config key 'theta0.high' for command 'toy'"),
    ("mlp", '{"layer_sizes": [3, 8, 3], "seeds": [0], "epochs": 1}',
     "layer_sizes[0] is 3, but the data have 2 features per sample"),
    ("toy", '{"iterations": 5, "optimizers": {"adam": {"rule": "adam", "alpha": 0.1}, '
            '"adam": {"rule": "sgd", "alpha": 0.5}}}',
     "cfg.json: config key 'adam' is listed twice"),
    ("toy", '{"iterations": 5, "iterations": 6}', "cfg.json: config key 'iterations' is listed twice"),
    ("toy", '{"optimizers": {"adam": {"rule": "adam", "rule": "sgd"}}}',
     "cfg.json: config key 'rule' is listed twice"),
], ids=[
    "mlp-seed", "toy-seed", "regret-iterations", "toy-iterations-bool", "mlp-epochs",
    "mlp-batch_size", "mlp-layer_sizes", "mlp-blobs.classes", "rosenbrock-grid.resolution",
    "regret-dim", "regret-theta0.dim", "regret-milestone-iteration", "regret-Infinity",
    "toy-NaN", "toy-1e400", "toy-seeds-number", "toy-seeds-object", "toy-tasks-number",
    "toy-tasks-string", "mlp-layer_sizes-number", "toy-optimizers-number", "mlp-optimizers-list",
    "rosenbrock-grid-number", "mlp-blobs-number", "rosenbrock-grid.x_range-number",
    "toy-tasks-empty", "regret-task-list", "regret-task-object", "toy-task-list",
    "toy-alpha-bool", "mlp-separation-bool", "mlp-separation-string", "toy-theta0-bool",
    "regret-milestone-divisor-bool", "toy-gc_enabled-string", "toy-lambda1-string",
    "regret-theta0.typo", "regret-theta0.dim-retired", "toy-milestone-repeated",
    "rosenbrock-grid-missing-resolution", "mlp-blobs-missing-separation",
    "regret-theta0-missing-low", "toy-theta0-missing-high", "mlp-layer_sizes-input-width",
    "toy-optimizer-repeated", "toy-iterations-repeated", "toy-rule-repeated",
])
def test_bad_config_number_exits_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "a"
    assert run(command, "--config", str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestGradcheck:
    def test_passes(self, tmp_path, capsys):
        assert run("gradcheck", "--out", str(tmp_path / "a")) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8  # f1 f2 f3, rosenbrock x3, quadratic, mlp
        assert all(line.endswith("ok") for line in lines)

    # a wrong gradient and a NaN one each fail their check
    @pytest.mark.parametrize("module, name, wrong, label, verdict", [
        (objectives, "rosenbrock", lambda fn: lambda *a: (fn(*a)[0], fn(*a)[1] * 1.001),
         "rosenbrock dim 2", "FAIL (tol 1e-05)"),
        (objectives, "rosenbrock", lambda fn: lambda *a: (fn(*a)[0], fn(*a)[1] * np.nan),
         "rosenbrock dim 2", "nan FAIL (tol 1e-05)"),
        (models, "_act_deriv", lambda deriv: lambda *a: deriv(*a) * np.nan,
         "mlp [4, 8, 8, 3]", "nan FAIL (tol 0.0001)"),
    ], ids=["rosenbrock-scaled", "rosenbrock-nan", "mlp-nan"])
    def test_fails_on_a_wrong_gradient(self, tmp_path, capsys, monkeypatch,
                                       module, name, wrong, label, verdict):
        monkeypatch.setattr(module, name, wrong(getattr(module, name)))
        assert run("gradcheck", "--out", str(tmp_path / "a")) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith(f"{label}:")][0].endswith(verdict)

    def test_takes_one_seed(self, tmp_path, capsys):
        assert run("gradcheck", "--seeds", "3,4", "--out", str(tmp_path / "a")) == 2
        assert "gradcheck takes one seed" in capsys.readouterr().err


class TestPlot:
    def test_plot_from_trajectory(self, tmp_path):
        out = tmp_path / "a"
        run("toy", "--config", toy_config(tmp_path), "--out", str(out),
            "--optimizers", "adam")
        code = run("plot", str(out / "toy_f1_adam_s0.csv"), "--out", str(out),
                   "--log-scale")
        assert code == 0
        ET.fromstring((out / "plot.svg").read_text())

    @pytest.mark.parametrize("name", ["nope.csv", "."], ids=["missing", "directory"])
    def test_missing_file_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "a"
        assert run("plot", str(tmp_path / name), "--out", str(out)) == 2
        assert str(tmp_path / name) in capsys.readouterr().err
        assert not out.exists()

    def test_bad_number_names_file_and_line(self, tmp_path, capsys):
        trajectory = tmp_path / "run.csv"
        trajectory.write_text("t,loss\n1,2.0\n2,abc\n")
        out = tmp_path / "a"
        assert run("plot", str(trajectory), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{trajectory}, line 3: could not convert string to float: 'abc'" in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["toy", "rosenbrock", "mlp", "regret"])
def test_failure_while_making_artifacts_writes_nothing(tmp_path, capsys, monkeypatch, command):
    """A protocol makes every artifact before the first is written, so one
    that fails on its summary, after its runs, leaves no CSV behind."""
    def broken(summary):
        raise ValueError("no summary")

    monkeypatch.setattr(cli, "summary_to_json", broken)
    out = tmp_path / "a"
    assert run(command, "--out", str(out), "--iters", "2", "--seeds", "0",
               "--optimizers", "adam") == 2
    assert "no summary" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["toy", "plot"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    trajectory = tmp_path / "run.csv"
    trajectory.write_text("t,loss\n1,2.0\n2,1.0\n")
    out = blocker / "sub"
    argv = [str(trajectory)] if command == "plot" else ["--optimizers", "adam", "--iters", "2"]
    assert run(command, *argv, "--out", str(out)) == 2
    first = "plot.svg" if command == "plot" else "toy_f1_adam_s0.csv"
    assert f"cannot write {out / first}: " in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [blocker, trajectory]


def test_import_loads_no_network_xml_or_email_modules():
    """Importing the CLI in a fresh interpreter pulls in none of urllib.request,
    xml, http or email: each would add to every command's start-up time.
    (urllib.parse is exempt: pathlib imports it on Python 3.11.)"""
    code = (
        "import sys, angular_optim.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('urllib.request')\n"
        "             or m.split('.')[0] in ('xml', 'http', 'email')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def test_protocols_load_only_what_they_run(tmp_path):
    """In one fresh interpreter: importing the CLI loads no html; the default
    toy and rosenbrock and a rosenbrock from a config theta0 draw nothing, so
    load neither numpy.random nor hashlib; and the default mlp, whose label
    check needs no np.unique, loads no numpy.ma.  Each check sees every module
    the steps before it loaded."""
    cfg = tmp_path / "theta0.json"
    cfg.write_text('{"theta0": [-1.5, 2.5]}')
    drawless = ["numpy.random", "hashlib"]
    steps = [([], ["html"]), (["toy"], drawless), (["rosenbrock"], drawless),
             (["rosenbrock", "--config", str(cfg)], drawless), (["mlp"], ["numpy.ma"])]
    code = (
        "import json, sys\n"
        "import angular_optim.cli\n"
        "found = []\n"
        "for argv, unwanted in json.loads(sys.argv[1]):\n"
        "    if argv:\n"
        "        assert angular_optim.cli.main(argv + ['--out', sys.argv[2]]) == 0\n"
        "    found.append([m for m in unwanted if m in sys.modules])\n"
        "print(json.dumps(found))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-W", "error", "-c", code, json.dumps(steps), str(tmp_path / "a")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[] for _ in steps]


# sha256 of every file the default protocols write, so any change to the
# engine, the CLI or the serializers that moves one byte of a default
# artifact fails here.
# Config runs keyed by case.  regret-composition: every rule and every
# wrapper (GC, hypergradient, decoupled decay) at dim 5 with two seeds.
# mlp-composition: the same through the MLP with relu and mse, a batch size
# that leaves a remainder batch, and two diverging optimizers, one on a
# non-finite loss and one on a non-finite parameter.
# toy-abort and rosenbrock-abort: a row that aborts mid-run (on a non-finite
# loss, or in its first step) beside rows that run the whole budget, through
# a milestone, an HGD row and angular rows, so a change in how the stacked
# loop records or drops rows moves one of their bytes.
PINNED_CONFIGS = {
    "regret-composition": {
        "task": "rosenbrock", "dim": 5, "seeds": [0, 1], "iterations": 3000,
        "theta0": {"rule": "uniform", "low": -1.5, "high": 1.5},
        "optimizers": {
            "radam": {"rule": "radam", "alpha": 0.001},
            "sgdm": {"rule": "sgdm", "alpha": 0.0001, "momentum_gamma": 0.9},
            "sgd_wd": {
                "rule": "sgd", "alpha": 0.0001, "momentum_gamma": 0.5,
                "weight_decay_lambda": 0.01,
            },
            "adamw_wd": {"rule": "adamw", "alpha": 0.001, "weight_decay_lambda": 0.01},
            "adabelief_gc": {"rule": "adabelief", "alpha": 0.001, "gc_enabled": True},
            "angulargrad_tan_hgd": {
                "rule": "angulargrad", "angle_variant": "tan", "alpha": 0.001,
                "hypergrad_omega": 1e-09,
            },
            "diffgrad_gc_hgd": {
                "rule": "diffgrad", "alpha": 0.001, "gc_enabled": True,
                "hypergrad_omega": 1e-09,
            },
            "rmsprop_wd": {
                "rule": "rmsprop", "alpha": 0.001, "beta2": 0.99,
                "weight_decay_lambda": 0.01,
            },
        },
    },
    "mlp-composition": {
        "blobs": {"classes": 3, "n_per_class": 20, "separation": 4.0},
        "layer_sizes": [2, 8, 3], "activation": "relu", "loss": "mse",
        "epochs": 6, "batch_size": 16, "seeds": [0, 1],
        "optimizers": {
            "sgd_hot": {"rule": "sgd", "alpha": 1e6},
            "sgdm": {"rule": "sgdm", "alpha": 0.01, "momentum_gamma": 0.9},
            "rmsprop_wd": {
                "rule": "rmsprop", "alpha": 0.001, "beta2": 0.99,
                "weight_decay_lambda": 0.01,
            },
            "adam": {"rule": "adam", "alpha": 0.01},
            "adamw_wd": {"rule": "adamw", "alpha": 0.01, "weight_decay_lambda": 0.01},
            "radam": {"rule": "radam", "alpha": 0.01},
            "diffgrad_gc_hgd": {
                "rule": "diffgrad", "alpha": 0.01, "gc_enabled": True,
                "hypergrad_omega": 1e-06,
            },
            "adabelief_gc": {"rule": "adabelief", "alpha": 0.01, "gc_enabled": True},
            "angulargrad_cos": {"rule": "angulargrad", "alpha": 0.01},
            "angulargrad_tan_hgd": {
                "rule": "angulargrad", "angle_variant": "tan", "alpha": 0.01,
                "hypergrad_omega": 1e-06,
            },
            "adam_overflow": {"rule": "adam", "alpha": 1.7e308},
        },
    },
    "toy-abort": {
        "tasks": ["f1", "f3"], "iterations": 300, "seeds": [0],
        "lr_milestones": [[150, 2.0]],
        "optimizers": {
            "sgd_big": {"rule": "sgd", "alpha": 50.0},
            "adam": {"rule": "adam", "alpha": 0.1},
            "diffgrad": {"rule": "diffgrad", "alpha": 0.1},
            "angulargrad_cos": {"rule": "angulargrad", "alpha": 0.1},
            "angulargrad_tan_hgd": {
                "rule": "angulargrad", "angle_variant": "tan", "alpha": 0.1,
                "hypergrad_omega": 0.001,
            },
        },
    },
    "rosenbrock-abort": {
        "seeds": [0, 1], "iterations": 3000, "theta0": [-2.0, 2.0],
        "lr_milestones": [[1000, 2.0]],
        "optimizers": {
            "sgd_hot": {"rule": "sgd", "alpha": 0.003},
            "adam_overflow": {"rule": "adam", "alpha": 1.7e308},
            "rmsprop": {"rule": "rmsprop", "alpha": 0.001, "beta2": 0.99},
            "radam": {"rule": "radam", "alpha": 0.01},
            "angulargrad_cos": {"rule": "angulargrad", "alpha": 0.01},
            "angulargrad_tan_hgd": {
                "rule": "angulargrad", "angle_variant": "tan", "alpha": 0.01,
                "hypergrad_omega": 1e-06,
            },
        },
    },
}

# The exit code of each case; 0 unless listed.
PINNED_EXIT_CODES = {"mlp-composition": 1, "rosenbrock-abort": 1, "toy-abort": 1}

# The numpy the digests were taken with.  Their bits rest on numpy's own
# operation order (its pairwise and left-to-right sums, masked loops and
# matmul), so another numpy may move them without any change here.
PINNED_NUMPY = "2.4.6"
# The SIMD targets numpy dispatched to when they were taken.  numpy's float64
# exp, log, tan and arctan give other last bits on another target: on the
# X86_V3 (AVX2) path the mlp and rosenbrock-abort digests move.
PINNED_DISPATCH = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def running_dispatch() -> tuple[str, ...]:
    """The dispatch targets this numpy was built for that this CPU enables."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return tuple(target for target in __cpu_dispatch__ if __cpu_features__.get(target))


# sha256 of every artifact, keyed by "<command>" for the defaults or by the
# PINNED_CONFIGS case for a config run.
PINNED_DEFAULT_ARTIFACTS = {
    "toy": {
        "toy_f1_adabelief_s0.csv":
            "bd88c095ab3df6af1be875195a29adb91f89ba447927ab6e90f9885deec99733",
        "toy_f1_adam_s0.csv":
            "20af949a78c972459d2e06202fccd571dbd321ad9cc3f393641f5f26909e11c0",
        "toy_f1_angulargrad_cos_s0.csv":
            "5f24237ddf29888be8716c60cc66bf5326550d766cddd3c735ce7cb9e7dbe811",
        "toy_f1_angulargrad_tan_s0.csv":
            "bdd4e4fb1195b64d05e5de8e3138c9cb028a886611ae7b725dc8f445261496bc",
        "toy_f1_diffgrad_s0.csv":
            "cc392f56d75d25bae2f5f833091612b46197b8e4cac34c5ea3419651c3c3a063",
        "toy_f1_loss.svg":
            "8644297a7c149875a256e07ae1988dd00bdb54098625bbdf6c24f6990fccdea1",
        "toy_f1_sgdm_s0.csv":
            "6ce0a60c61f9453ce5dd9700f2df7076b1ec398962a85bfa183317d57c6ba3fd",
        "toy_f1_summary.json":
            "081fec5b959c867494aee005b7a4edb819724637242284533a41dfb9dc2fed93",
        "toy_f1_theta.svg":
            "350c3d9799a5f2d6f8e0387e3a2995fbb2489517b771a4b36de169badabcd7a0",
        "toy_f2_adabelief_s0.csv":
            "7ef9baa914debf2ab9f4e077cc657e6a9c97beebee13d626ae821243f4a0fe9f",
        "toy_f2_adam_s0.csv":
            "1ebb129bfdc75d5ea040428cf26e6a2915520727a482714dc21fabe964e286c2",
        "toy_f2_angulargrad_cos_s0.csv":
            "f78c2ce3ce15a9b396dee2edcebf5d024771d6aead9840cbab434833e1e20ea6",
        "toy_f2_angulargrad_tan_s0.csv":
            "17f611fa32676859ef3663b9b129d3a62b6319beed4f366b39c954370aa9fed8",
        "toy_f2_diffgrad_s0.csv":
            "d18db80db478aa5a773864bfc615a686d1e394dad175bd434e9d7193be6095ea",
        "toy_f2_loss.svg":
            "ca7e628a17b1f8c320f4dd150bef22f155ae210174ec38ae4e967d273ad6d45c",
        "toy_f2_sgdm_s0.csv":
            "b365c13f4f3ba112e9da98a0e4ac89ffc8c2f78362e4ca83a435710beac9d958",
        "toy_f2_summary.json":
            "fe29e69a9fdb7c6fbccb5dd34a02f03eabe2ddebff9aaca00f713f954bf062be",
        "toy_f2_theta.svg":
            "1b63c22c011b6697cbd9aa9337a1b74975eadc52cef14524b0994a796b7c5a96",
        "toy_f3_adabelief_s0.csv":
            "980bcc548aa44e3f58b94051f252f0e5901052396f26083e35cbae70ded9ced6",
        "toy_f3_adam_s0.csv":
            "aa926dc14c4fe300c7ae03ee3dce39671bc6db5e310dbadd25d4b3108aec5719",
        "toy_f3_angulargrad_cos_s0.csv":
            "67cba5a584fd92b04933e350db5c2b7a0b3e856f624ed60e5a7308647a39e0f8",
        "toy_f3_angulargrad_tan_s0.csv":
            "0c1d8f76f0b4ac84f769462effd88e724a07807155ad748073f3f1817c165b05",
        "toy_f3_diffgrad_s0.csv":
            "1e6a016a9ba50c71902085d5a463d849481636899aad0a5c2fb8a0b648b866d2",
        "toy_f3_loss.svg":
            "ae9290ab7f7594234d14fd8ec55e420b2c24b862ff9dce1dcb4f7c2b00e26727",
        "toy_f3_sgdm_s0.csv":
            "92a224f19e5b977ee048d8c54b1a6e68d28ce7764c53a15a676e6e9bfae5b7a9",
        "toy_f3_summary.json":
            "9c929a1432ead0917835a5171cd7f12680acd985c8a8b18c5d274220771bbe39",
        "toy_f3_theta.svg":
            "a15b5b8a3442ff176941286e240f52cf0d80c14a48d6f7eef060e0bd77891d43",
    },
    "mlp": {
        "mlp_adabelief_s0.csv":
            "48468976d2e7100befd1451bc633b0e3967ef641976f05e2c621916639105a42",
        "mlp_adabelief_s1.csv":
            "931aee2a1e890ca27bc279efbcf253fc912a4f0dd16a086f2a6a91d1e1013761",
        "mlp_adabelief_s2.csv":
            "dfc1ddf949a495cc8f8dccdfdbae7b1173661b742ca2d79973609e8a472ad4de",
        "mlp_adabelief_s3.csv":
            "a016ec447200946b5438597c6cc592505dd33441512a8b47aa233f1da4951f63",
        "mlp_adabelief_s4.csv":
            "50bad00dbcc024262229f0ce28b0267810975e9beb8b1dd21606e0824c098abe",
        "mlp_adam_s0.csv":
            "9d332b0d91b091f04e7cfbba9bd54f26a4035e5e9758f688fd95ddc013676649",
        "mlp_adam_s1.csv":
            "9c7c005d648fbd05e42fb59e2f8c3ef17d18b195d97a0b54a56abfff59f39a5a",
        "mlp_adam_s2.csv":
            "8f97f0a8bfb569b558bdad07662594691688dd3dcd6f417c0c8d4ccab0ee940c",
        "mlp_adam_s3.csv":
            "9e3de84ffafcdf542cc2ae46fe1b1e8f6ee0a07a1e33d2b5c860266fe461692e",
        "mlp_adam_s4.csv":
            "0c127ccb9a7841d33fb849fd6ce3030e68bb70036de4a4a93dc14a418ce7b7c4",
        "mlp_adamw_s0.csv":
            "9d332b0d91b091f04e7cfbba9bd54f26a4035e5e9758f688fd95ddc013676649",
        "mlp_adamw_s1.csv":
            "9c7c005d648fbd05e42fb59e2f8c3ef17d18b195d97a0b54a56abfff59f39a5a",
        "mlp_adamw_s2.csv":
            "8f97f0a8bfb569b558bdad07662594691688dd3dcd6f417c0c8d4ccab0ee940c",
        "mlp_adamw_s3.csv":
            "9e3de84ffafcdf542cc2ae46fe1b1e8f6ee0a07a1e33d2b5c860266fe461692e",
        "mlp_adamw_s4.csv":
            "0c127ccb9a7841d33fb849fd6ce3030e68bb70036de4a4a93dc14a418ce7b7c4",
        "mlp_angulargrad_cos_s0.csv":
            "bb5a450f492a8061a1ac9e57ef5891ced543c7b3317889c38d04b18792bea76a",
        "mlp_angulargrad_cos_s1.csv":
            "46c6cef32fb9e46a22601d1911b600d25c2ba21c5c27a2226e779d494eaa59e3",
        "mlp_angulargrad_cos_s2.csv":
            "ebe9419b0cb7bdaaf11f617224c73a7130f43f4b403a4c44fb50fa68d552f9d0",
        "mlp_angulargrad_cos_s3.csv":
            "50794a6da4d36a47c8cce9ed7269e1253772d08c500c5b768fd71356ff9c4d69",
        "mlp_angulargrad_cos_s4.csv":
            "d73fb45dd020ec3c2bb40e617dbd89837145cc239b2e42cd1b498ea4091ec8f3",
        "mlp_angulargrad_tan_s0.csv":
            "2eba1b22a3c4b178c8ecea1d9a00ebf4eac07134211a07b4510b0b453f5b6129",
        "mlp_angulargrad_tan_s1.csv":
            "15ceaf30f28377923eb34a6fb50258fae3f995b003b81552559ef40c86031a81",
        "mlp_angulargrad_tan_s2.csv":
            "217376415b456621e36026126f09d7e1cc6da135ea5cd572cf22bfad773bd561",
        "mlp_angulargrad_tan_s3.csv":
            "76b68e463323436ea4f404649c78b953d56bc3e03516780ff23e4904790548fc",
        "mlp_angulargrad_tan_s4.csv":
            "24da1d89706c31df927507cf34b39f7db9fb47b64e232ad77ef41f6a34c80d75",
        "mlp_diffgrad_s0.csv":
            "e44a614d28ea5da7ae28d73c33ae9c7cbb4cd72ff390ec165e7a7afd10115faf",
        "mlp_diffgrad_s1.csv":
            "ddf9e83e3a3ad07c481f8a786f696a62dc9a59b091c678f001d3e487058b3f48",
        "mlp_diffgrad_s2.csv":
            "58bbc412d3a4aa9ebb81c4591ffc98306acbd912adc3eada8994082002533cff",
        "mlp_diffgrad_s3.csv":
            "571556c419047702dc7de52b11015ea13a283a2100823205f317c2f5c7b0664c",
        "mlp_diffgrad_s4.csv":
            "83f20baded0a6422e37d5f83a95a7708468a40b38b97665d4bd64dcc8c623ac9",
        "mlp_summary.json":
            "efdf1acf9743a698608c1ae3ed882bc346ef57dcf6353912a58578730f68c16b",
    },
    "mlp-composition": {
        "mlp_adabelief_gc_s0.csv":
            "896d3348ff4326ad8c912f184dcb10e149035c873f3c79946d28b880037a3371",
        "mlp_adabelief_gc_s1.csv":
            "fe230d9b35d7c7851c480b745f4ad4b1d47b4ec28a0000fe27f9b3d235b9488a",
        "mlp_adam_overflow_s0.csv":
            "0a396c8b319df2d4bd423092fe512734fe2cec5787a2607b57b4364d386d6efe",
        "mlp_adam_overflow_s1.csv":
            "0a396c8b319df2d4bd423092fe512734fe2cec5787a2607b57b4364d386d6efe",
        "mlp_adam_s0.csv":
            "2e015158fb1d3076d8e3922f68e0abf2c3f0398297bc5b0869bd41d4667d74c4",
        "mlp_adam_s1.csv":
            "c5285ae294d3bb157855a04d34306cdd47b5208286bf821bce8ab511414d5780",
        "mlp_adamw_wd_s0.csv":
            "2bf3dbde52201138c419bf824566cd26c82320852564337db39845e64b96e188",
        "mlp_adamw_wd_s1.csv":
            "1c5259a8e9a8c163039a602634ccfc74f7d2998a191bf693aa6c09f4016e45ab",
        "mlp_angulargrad_cos_s0.csv":
            "00f99d830e8fba0474ffd487f769110f715b19e8b141052789a44245c7628caf",
        "mlp_angulargrad_cos_s1.csv":
            "1b2066dcda955fb455391c4207f003b7bc27bb52b905c95c65d6d7d580ba424a",
        "mlp_angulargrad_tan_hgd_s0.csv":
            "fe8dc86b7bdf3a0c80fe07cfdac088b70c8c33b0192022f556c84bd373c17985",
        "mlp_angulargrad_tan_hgd_s1.csv":
            "845e4e5a47977684336dc970461843d61f34d4ce0e3b807d95a7fc09aca2d173",
        "mlp_diffgrad_gc_hgd_s0.csv":
            "73f64e698d8cfefe0af98ff669e85eb6b83d8b5577d79853f04dd8c99de320f9",
        "mlp_diffgrad_gc_hgd_s1.csv":
            "4b85671180efa4a26e7b47c8885d6bf5ddbc9260f4d320b6e25bc514f30be1b1",
        "mlp_radam_s0.csv":
            "6107389394d193ecb8cea8218f38aa9aaa1d77a633e0edd5222d91c700b487d9",
        "mlp_radam_s1.csv":
            "15ac2929b4b344942e2f4c10c371db4cd910c2d49d8ff9d3d400a9bbe4b3cab9",
        "mlp_rmsprop_wd_s0.csv":
            "9fd22f2b8cc5bd1cc23ce921eb4102cb89e32d1367bb6fd3bd45b213369f847c",
        "mlp_rmsprop_wd_s1.csv":
            "cefa776c2700a7addf6ca47ab890fe770089ba30284688ccd48678c31772077c",
        "mlp_sgd_hot_s0.csv":
            "0a396c8b319df2d4bd423092fe512734fe2cec5787a2607b57b4364d386d6efe",
        "mlp_sgd_hot_s1.csv":
            "0a396c8b319df2d4bd423092fe512734fe2cec5787a2607b57b4364d386d6efe",
        "mlp_sgdm_s0.csv":
            "16b2c02b681d569bf6dfcb124934b76cc110958002af3a4fb5622d72f2af8527",
        "mlp_sgdm_s1.csv":
            "f5d08c43ad1480add287760338a5165d4fcf38ad33218b351cd42451a7c5c794",
        "mlp_summary.json":
            "c748b9c3c488b80c6e594b38c37c73e7763b132868632fdf87220b6efbc21fbe",
    },
    "regret": {
        "regret_adam_s0.csv":
            "4d848517234567ba9b978322420164af57913a9853ad92efebabe2accf86ad97",
        "regret_angulargrad_cos_s0.csv":
            "7411bb522b3cc7a644817a798a39ce5b4733d87944341b977c2a05d785cd1493",
        "regret_angulargrad_tan_s0.csv":
            "8e54635de4232714729c5ca299859e5264c1ad441e5fb5a5161c29c91fd267a2",
        "regret_avg.svg":
            "294d1e4dec549365ccd203512aca98a170a1fd1a706bdd6a2d5fcec4bcfe99da",
        "regret_summary.json":
            "a54281868e40ca89072fbd83fd5bdf716acf7536e33be88dddabc927a13f1a8e",
    },
    "regret-composition": {
        "regret_adabelief_gc_s0.csv":
            "7b48e71eea574961f7648a7f6774759dc1474d80a3fbaea908ccd8a93f852394",
        "regret_adabelief_gc_s1.csv":
            "04386a990272d890dc13d893c3aaa52456b8575413ab6ec0ae4aeec164ec07cf",
        "regret_adamw_wd_s0.csv":
            "61320415b3152ad3369167004096df41f8f50a0f984e02511a9c8ce849fc7c2b",
        "regret_adamw_wd_s1.csv":
            "38c875174a836f9f8d4087a34ec0ce0b4ab7ec8e1cf7bebe47374a8ee726b2bc",
        "regret_angulargrad_tan_hgd_s0.csv":
            "bbe4e34f7b2b59c3ba79cccd2405f3bce7fb0cfa8af2dc95a0eec6579dab1729",
        "regret_angulargrad_tan_hgd_s1.csv":
            "e237489b928b4cd09111d6ec6fd901ad7abadeb4416332ad65b50c8c6217053e",
        "regret_avg.svg":
            "ea8d3419d6dc21c2371ef146ef4d05495f79ea0d59f37090ae5b04c0886af254",
        "regret_diffgrad_gc_hgd_s0.csv":
            "c818e2ed59aa22252ddb0486dcdf53e558b19f6674c13f9aa8ac25e7956b54f1",
        "regret_diffgrad_gc_hgd_s1.csv":
            "8f82bb3ab27592a2ddfec8fb8ea5b30fa184390a8c005bb7b7a5b36c92e88ea0",
        "regret_radam_s0.csv":
            "ab0f5f931bbcbdf54d1575cadb02a0828f13dcf3ffbce509ed352d96ec78d8fa",
        "regret_radam_s1.csv":
            "8094b77b908a32d3ff625bd2c745fcae224f86e55f67210a595790af5bbaee61",
        "regret_rmsprop_wd_s0.csv":
            "81dedd171c1edfe84d7610a8cb2fbeffd8d3ac19cb1382b0bff8635b45f052b5",
        "regret_rmsprop_wd_s1.csv":
            "18ff25f1cbd096642742b01e750338f7a0fcdc825aa1c98d2cc81f5b2f4cf70e",
        "regret_sgd_wd_s0.csv":
            "0c5aeebcc33794f44f398fc3599fcb1adfd7d7849120b2c0540501702df88f27",
        "regret_sgd_wd_s1.csv":
            "0a0b6c138d4b252854b8e4e66b177b43a0a3a522f81bb5320574aacfebb48853",
        "regret_sgdm_s0.csv":
            "74349dccfbcd5dbfcaf8fb09c0b27830087e7e5cc2d2f079115c7ddb76639353",
        "regret_sgdm_s1.csv":
            "6c74e36635d176bc05e937ed61ff0659b72ce8de37db41ef8b35a440c9ac77d6",
        "regret_summary.json":
            "ce4fb238f76859004e52912bcf9bae47b93576ae3e7d2e5554a67aa9c4b645dc",
    },
    "rosenbrock": {
        "rosenbrock_adabelief_s0.csv":
            "84012ec1c6240877644e7477cc7e3a1a3412d464a13d27e67795f3a1e6cad67e",
        "rosenbrock_adam_s0.csv":
            "6242eb3594e9c594eadeb223847030381859ed245fc840d17f957220354f8f7a",
        "rosenbrock_adamw_s0.csv":
            "6242eb3594e9c594eadeb223847030381859ed245fc840d17f957220354f8f7a",
        "rosenbrock_angulargrad_cos_s0.csv":
            "74c1586bf792d39f7be127e04ab4fccd6a943f6e24502ab73c3d10299c094533",
        "rosenbrock_angulargrad_tan_s0.csv":
            "ad2cd7dc5ac18506d8eccba47e0f7c8e0d679bacfb282d639c21ae55a50a96cd",
        "rosenbrock_diffgrad_s0.csv":
            "a60e7574d7e74fc7192ece4bbd0b430ebca50697ebd43554e8335a53029ed1ec",
        "rosenbrock_grid.csv":
            "49acff0cd74cce6dd88df3f8bdbad2366d62e6f77b21fb04d6e20c0449248e7e",
        "rosenbrock_overlay.svg":
            "978f7ca309b13189d2cb615d2b669d10a4b6f48db711945439ccc2c0fcd161f5",
        "rosenbrock_rmsprop_s0.csv":
            "8d0d2722d394c6f351d5a65c5cadf4a7683b0866927de229c6ae1a4f4a1b3010",
        "rosenbrock_sgd_s0.csv":
            "59b8186fc35acc949107897288c39f0a714edb2e2a59ad3c00ee2fa58ff73349",
        "rosenbrock_summary.json":
            "4fb28520f51fcab7b1a6296785468cc63393fe39ca70da6930ef9c23d82b12a9",
    },
    "rosenbrock-abort": {
        "rosenbrock_adam_overflow_s0.csv":
            "b5bdb0ba6b99d3ae8dc01bd67d84f74c786eb235913660648a0ba98d050d94f5",
        "rosenbrock_adam_overflow_s1.csv":
            "b5bdb0ba6b99d3ae8dc01bd67d84f74c786eb235913660648a0ba98d050d94f5",
        "rosenbrock_angulargrad_cos_s0.csv":
            "aabc971be43e4215b6e96cf86821add4d9ee7a490953049ffe10044f205b29b6",
        "rosenbrock_angulargrad_cos_s1.csv":
            "aabc971be43e4215b6e96cf86821add4d9ee7a490953049ffe10044f205b29b6",
        "rosenbrock_angulargrad_tan_hgd_s0.csv":
            "af11febc5b866599794058d3f02ea9d3e7410d0160aaffc93b51e49fef6597f0",
        "rosenbrock_angulargrad_tan_hgd_s1.csv":
            "af11febc5b866599794058d3f02ea9d3e7410d0160aaffc93b51e49fef6597f0",
        "rosenbrock_grid.csv":
            "49acff0cd74cce6dd88df3f8bdbad2366d62e6f77b21fb04d6e20c0449248e7e",
        "rosenbrock_overlay.svg":
            "96a5ab97e3f64b08feaa1fde4d14f566cee8124043687836182a3d3560f40bca",
        "rosenbrock_radam_s0.csv":
            "6becf891f4fc72f035a18265800bc615d6ed340b8df57277cf995a406d9f9663",
        "rosenbrock_radam_s1.csv":
            "6becf891f4fc72f035a18265800bc615d6ed340b8df57277cf995a406d9f9663",
        "rosenbrock_rmsprop_s0.csv":
            "30dec35acd2f7b564bca42a0bbbd3ee353dc74966aad8d7411b786322f976f53",
        "rosenbrock_rmsprop_s1.csv":
            "30dec35acd2f7b564bca42a0bbbd3ee353dc74966aad8d7411b786322f976f53",
        "rosenbrock_sgd_hot_s0.csv":
            "ad05b53e6ec0936f29e6219c933d147da784881bca7b040a981bf5b9f77ae8f9",
        "rosenbrock_sgd_hot_s1.csv":
            "ad05b53e6ec0936f29e6219c933d147da784881bca7b040a981bf5b9f77ae8f9",
        "rosenbrock_summary.json":
            "ff06e35567adbf158917d9b1ee99c27cd328ae75d3d1d76258e514437c04c41b",
    },
    "toy-abort": {
        "toy_f1_adam_s0.csv":
            "e6852337e889f4da5b2b383bb154cdb00af0a780206b29675df6d944d89cae09",
        "toy_f1_angulargrad_cos_s0.csv":
            "09b21f4b4463d8acd76caf569003e4f97047f52f095ca42f5b861c9148fa35e5",
        "toy_f1_angulargrad_tan_hgd_s0.csv":
            "ca406b058fd6ea68a208ca96e089d985f137e8ee7a9d8f5b1e0da7982f977d8a",
        "toy_f1_diffgrad_s0.csv":
            "b6007f680fd1a934942a1f6f4ed2966cd529274416511b327b093fe70bd31e3f",
        "toy_f1_loss.svg":
            "0d6f53b74ca5dfa1911aa2e42ace0fd090bc9376203c90b7bdc2c9c202d2a270",
        "toy_f1_sgd_big_s0.csv":
            "c3a3e06f644369ad5dbdd1f18177a14da7e7292bb53e2c0f3673415d63fae73b",
        "toy_f1_summary.json":
            "4236d168cb5551174e501c633bcc565d948fef1106e77807abb68b82a9c144b0",
        "toy_f1_theta.svg":
            "aabe8756eed8ff98d647f0c51b5d7966bb5fe0da31b8bdbc37db5394394f033d",
        "toy_f3_adam_s0.csv":
            "d107e429a08835fdcd4b1384c77e72566a77292b101b70e8a6ecf45852f7a3fb",
        "toy_f3_angulargrad_cos_s0.csv":
            "544a66b5ed0795ab35730ce24f09c9de9c9d49d94e2b6487242569ec63acca63",
        "toy_f3_angulargrad_tan_hgd_s0.csv":
            "dab175254b841cf90d3361d0643ba413e2080e592b19abba5693ae1c93ab5495",
        "toy_f3_diffgrad_s0.csv":
            "dcce30abb1da5dc38d3ae0740b65f4c8423892bc61b663a74f556ff9185b7ef8",
        "toy_f3_loss.svg":
            "7e1b4a0a4d077bc642f595a1eb04509c40725440101fcbce2849bb8759504a17",
        "toy_f3_sgd_big_s0.csv":
            "067f9b37882a6fbdbc1f9c482d738f034341574ce822e0fb58677ca4526f5db4",
        "toy_f3_summary.json":
            "fd7775e083d1ed41b2054939539d5961669f4c8053b939beced77f48b3527943",
        "toy_f3_theta.svg":
            "ccf9c08c83deba0137767176e0de468a4e2efd34c1fa0c3547213e0c961edfe6",
    },
}

# The digests that move on the X86_V3 (AVX2) path, where numpy's float64 exp,
# log, tan and arctan give other last bits; every other artifact keeps its
# PINNED_DEFAULT_ARTIFACTS digest there.  mlp's softmax takes exp and log, and
# rosenbrock-abort's tan rows take tan and arctan.
X86_V3_DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"
PINNED_X86_V3_ARTIFACTS = {
    "mlp": {
        "mlp_adabelief_s0.csv":
            "ff88bd480707d97ae688ce9bf6309321d5ba7cc721f26e891bed5f28e587cbd6",
        "mlp_adabelief_s1.csv":
            "c04fd6369f9659f675f2a59d3f5096b4d2e53d8f356a3937a301121e7d805440",
        "mlp_adabelief_s2.csv":
            "b62a86048585ee0425847b2a6d37182f49c4893dd2ff85997a5b831deed8e8df",
        "mlp_adabelief_s3.csv":
            "8309bdb452b16c6a163a69d59e1d20bf641a26ab98cda42d35268206a0d9932e",
        "mlp_adabelief_s4.csv":
            "71b1190e9c64494449f0741dbc4f1e36b3bf7facf1e707713d7f600aee6669df",
        "mlp_adam_s0.csv":
            "a08ef69400e0c01164b0e53f3c77b828e6561210bda842c5963474fd86226586",
        "mlp_adam_s1.csv":
            "c1c478b7b7a89f68701eba2f292f481eebca1f55eae1b649df465e55bd6eebd4",
        "mlp_adam_s2.csv":
            "9149fed6c38a9cb9ae8cc24c78188b7ae2107fa337685435422da94fe31f5b66",
        "mlp_adam_s3.csv":
            "934b851a000ddc97ead760faf49a3f9317efe7368d1c3568d78b3a7e0b3115e4",
        "mlp_adam_s4.csv":
            "bbfa58d503eb62af797864f82288013d87554201361642bda7472eb24e0e6e6c",
        "mlp_adamw_s0.csv":
            "a08ef69400e0c01164b0e53f3c77b828e6561210bda842c5963474fd86226586",
        "mlp_adamw_s1.csv":
            "c1c478b7b7a89f68701eba2f292f481eebca1f55eae1b649df465e55bd6eebd4",
        "mlp_adamw_s2.csv":
            "9149fed6c38a9cb9ae8cc24c78188b7ae2107fa337685435422da94fe31f5b66",
        "mlp_adamw_s3.csv":
            "934b851a000ddc97ead760faf49a3f9317efe7368d1c3568d78b3a7e0b3115e4",
        "mlp_adamw_s4.csv":
            "bbfa58d503eb62af797864f82288013d87554201361642bda7472eb24e0e6e6c",
        "mlp_angulargrad_cos_s0.csv":
            "ff2f595a85e673a129262553b1bd3da9a2b0ccb3780e2bffb94cba882b920973",
        "mlp_angulargrad_cos_s1.csv":
            "f7da8a6853dc4bc69aab4d2d8f8d8c9ea1715e12f17fd6fe5a72218fb248c9fd",
        "mlp_angulargrad_cos_s2.csv":
            "cb70784fd41afc73a2ce197619bf9148b14acc082009ec7de06cd0938e5bac77",
        "mlp_angulargrad_cos_s3.csv":
            "0129efbb51b380b16aedde3fda075fe2ee7051ed937891d6214b2aa8bf15f40f",
        "mlp_angulargrad_cos_s4.csv":
            "2ea563f731663aa7b9f7c645769fc154eae04ef25997dd20c97c033ca47ce5f9",
        "mlp_angulargrad_tan_s0.csv":
            "52641c0347c171b57fc026f49c3b5c6d0cdcec9602243f889158036eaa5014e6",
        "mlp_angulargrad_tan_s1.csv":
            "400d56bd8fa14e03752dbfff20486e6b6dbb52fbaec4616945e7ab43666d727b",
        "mlp_angulargrad_tan_s2.csv":
            "eb272ef6394a7df08c46684054244539ca785c9667fcc62b52a102cbbda1380b",
        "mlp_angulargrad_tan_s3.csv":
            "ebdd5013b7cff92c94838eb60011dc1bf181fe6f0d457ea5877dfc7ad2467935",
        "mlp_angulargrad_tan_s4.csv":
            "1a98f0d9b8fb482a869253c16a151aaec6d1de7ff764cc44f1d2013f4eb0e3c0",
        "mlp_diffgrad_s0.csv":
            "d1733023cae9dea3c29c0087901a6d57c4cc9187a18d3aeb692a9727ec584331",
        "mlp_diffgrad_s1.csv":
            "2f727fbe6526df5fd5b630e1b324900e286f7870683e23f391c08a40f0e6d202",
        "mlp_diffgrad_s2.csv":
            "d00f7d0a08408351bfe4bebf8c1dbde38f7b9c8a9266cb7a4d4369ba61b3fbd3",
        "mlp_diffgrad_s3.csv":
            "73bc181f95a3a3cbba00117310121bf426921530af5ecd484975f39ba6e0cd13",
        "mlp_diffgrad_s4.csv":
            "439f35c92575db0e6187bbe5e1e80007edb601daba7af060b84eb36fed8d2fe1",
        "mlp_summary.json":
            "0d56357919d4e3575585e4682a31d9a06f16d29bf1fd39020b0be15402d03cbb",
    },
    "rosenbrock-abort": {
        "rosenbrock_angulargrad_tan_hgd_s0.csv":
            "19f4a7cbd4f1325b40f0591bf3a38defe9bda2aeb56e1715d93a9d547d08bdb9",
        "rosenbrock_angulargrad_tan_hgd_s1.csv":
            "19f4a7cbd4f1325b40f0591bf3a38defe9bda2aeb56e1715d93a9d547d08bdb9",
        "rosenbrock_overlay.svg":
            "00f0dd5430bfc1ffa0f149b98328e34dec0185c1844fcb10ba68cfd8585990da",
        "rosenbrock_summary.json":
            "5850697c20e7900441b843b900280197802759184ee16f7fb92c6be134199127",
    },
}


def pinned_argv(tmp_path, case) -> list[str]:
    """The command line of a PINNED_DEFAULT_ARTIFACTS case, writing into
    tmp_path/<case> (and its config, if any, beside it)."""
    argv = [case.partition("-")[0], "--out", str(tmp_path / case)]
    if case in PINNED_CONFIGS:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(PINNED_CONFIGS[case]))
        argv += ["--config", str(path)]
    return argv


def digests(out) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = toy_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        run("toy", "--config", cfg, "--out", str(a))
        run("toy", "--config", cfg, "--out", str(b))
        for p in a.iterdir():
            assert (b / p.name).read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("case", sorted(PINNED_DEFAULT_ARTIFACTS))
    def test_default_artifacts_match_pinned_digests(self, tmp_path, case):
        assert run(*pinned_argv(tmp_path, case)) == PINNED_EXIT_CODES.get(case, 0)
        assert digests(tmp_path / case) == PINNED_DEFAULT_ARTIFACTS[case], (
            f"digests pinned on numpy {PINNED_NUMPY} dispatching to {' '.join(PINNED_DISPATCH)}, "
            f"running numpy {np.__version__} dispatching to {' '.join(running_dispatch())}")

    @pytest.mark.skipif(running_dispatch() != PINNED_DISPATCH,
                        reason="the X86_V3 path is checked from the pinned targets")
    def test_x86_v3_path_matches_its_pinned_digests(self, tmp_path):
        """Every pinned case, run in one interpreter that numpy starts on the
        X86_V3 (AVX2) path (NPY_DISABLE_CPU_FEATURES acts on that process only),
        gives its digests there: PINNED_X86_V3_ARTIFACTS over the default pins."""
        cases = {case: pinned_argv(tmp_path, case) for case in sorted(PINNED_DEFAULT_ARTIFACTS)}
        code = (
            "import json, pathlib, sys\n"
            "from angular_optim.cli import main\n"
            "from test_cli import digests, running_dispatch\n"
            "cases = json.loads(sys.argv[1])\n"
            "codes = {case: main(argv) for case, argv in cases.items()}\n"
            "got = {case: digests(pathlib.Path(argv[2])) for case, argv in cases.items()}\n"
            "print(json.dumps([running_dispatch(), codes, got]))\n"
        )
        path = os.pathsep.join([os.path.dirname(__file__), *sys.path])
        env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=X86_V3_DISABLED)
        argv = [sys.executable, "-W", "error", "-c", code, json.dumps(cases)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        dispatch, codes, got = json.loads(done.stdout)
        assert dispatch == ["X86_V3"]
        assert codes == {case: PINNED_EXIT_CODES.get(case, 0) for case in cases}
        for case in cases:
            want = {**PINNED_DEFAULT_ARTIFACTS[case], **PINNED_X86_V3_ARTIFACTS.get(case, {})}
            assert got[case] == want, case
