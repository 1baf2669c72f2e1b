"""End-to-end CLI runs: artifacts, exit codes, overrides, determinism."""

import json
import warnings
import xml.etree.ElementTree as ET

import pytest

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


class TestGradcheck:
    def test_passes(self, tmp_path, capsys):
        assert run("gradcheck", "--out", str(tmp_path / "a")) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8  # f1 f2 f3, rosenbrock x3, quadratic, mlp
        assert all(line.endswith("ok") for line in lines)

    def test_fails_with_tight_tolerance(self, tmp_path):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"tolerance_objectives": 1e-18,
                                   "tolerance_mlp": 1e-18}))
        assert run("gradcheck", "--config", str(cfg), "--out", str(tmp_path / "a")) == 3


class TestPlot:
    def test_plot_from_trajectory(self, tmp_path):
        out = tmp_path / "a"
        run("toy", "--config", toy_config(tmp_path), "--out", str(out),
            "--optimizers", "adam")
        code = run("plot", str(out / "toy_f1_adam_s0.csv"), "--out", str(out),
                   "--log-scale")
        assert code == 0
        ET.fromstring((out / "plot.svg").read_text())

    def test_missing_file_exits_2(self, tmp_path):
        assert run("plot", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = toy_config(tmp_path, seeds=[0, 1])
        outs = {}
        for label, threads in (("serial", "1"), ("pooled", "4")):
            monkeypatch.setenv("ANGULAR_OPTIM_THREADS", threads)
            out = tmp_path / label
            assert run("toy", "--config", cfg, "--out", str(out)) == 0
            outs[label] = {
                p.name: p.read_bytes() for p in out.iterdir()
            }
        assert outs["serial"] == outs["pooled"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = toy_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        run("toy", "--config", cfg, "--out", str(a))
        run("toy", "--config", cfg, "--out", str(b))
        for p in a.iterdir():
            assert (b / p.name).read_bytes() == p.read_bytes()

    def test_invalid_thread_env_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANGULAR_OPTIM_THREADS", "lots")
        cfg = toy_config(tmp_path)
        assert run("toy", "--config", cfg, "--out", str(tmp_path / "a")) == 2
