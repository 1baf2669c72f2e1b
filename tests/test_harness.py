"""Experiment runner, regret, aggregation, oscillation, and CSV/JSON output."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angular_optim.defaults import DEFAULT_REGRET, DEFAULT_ROSENBROCK
from angular_optim.harness import (
    BLOCK_BYTES,
    BLOCK_ITERATIONS,
    CSV_BLOCK_ROWS,
    LOSS_THRESHOLD_1D,
    Trajectory,
    _csv,
    aggregate,
    compute_regret,
    grid_eval,
    grid_to_csv,
    iterations_to_threshold,
    regret_to_csv,
    resolve_theta0,
    run_experiment,
    single_run,
    summary_to_json,
    trajectory_to_csv,
    write_text_atomic,
)
from angular_optim.numerics import make_rng
from angular_optim.objectives import Objective, get_objective
from angular_optim.optimizers import (
    ANGLE_VARIANTS,
    RULES,
    ConfigStack,
    OptimizerConfig,
    angular_coefficient,
)


def run_alone(objective, config, theta0, iterations, *args, **kwargs) -> Trajectory:
    """single_run on the one-row stack of ``config``: its only trajectory."""
    (trajectory,) = single_run(objective, config.stack, theta0, iterations, *args, **kwargs)
    return trajectory


def make_traj(losses, thetas=None, ts=None):
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.size
    return Trajectory(
        t=np.asarray(ts, dtype=np.int64) if ts is not None else np.arange(1, n + 1),
        loss=losses,
        alpha=np.full(n, 0.1),
        phi_mean=np.ones(n),
        step_norm=np.zeros(n),
        thetas=np.asarray(thetas, dtype=np.float64) if thetas is not None else None,
        final_params=np.zeros(1),
    )


class TestSpecValidation:
    """single_run checks the iteration count and milestones it uses, and a
    stack with no run is an error on every route."""

    ADAM = {"adam": OptimizerConfig()}

    def test_bad_iterations(self):
        with pytest.raises(ValueError, match=r"^iterations must be >= 1$"):
            run_alone(get_objective("f1"), OptimizerConfig(), [0.0], 0)

    def test_no_optimizers(self):
        with pytest.raises(ValueError, match=r"^need at least one run$"):
            run_experiment(get_objective("f1"), {}, (0,), [0.0], 10)

    def test_no_seeds(self):
        with pytest.raises(ValueError, match=r"^need at least one run$"):
            run_experiment(get_objective("f1"), self.ADAM, (), [0.0], 10)

    @pytest.mark.parametrize("milestones, message", [
        ([(2, 0.0)], r"^lr_milestones divisors must be finite and > 0$"),
        ([(2, math.inf)], r"^lr_milestones divisors must be finite and > 0$"),
        ([(2, 10.0), (2, 0.5)], r"^lr_milestones iteration 2 is listed twice$"),
        ([(0, 10.0)], r"^lr_milestones iterations must be >= 1$"),
    ], ids=["zero-divisor", "infinite-divisor", "repeated-iteration", "at-zero"])
    def test_milestones_checked_on_a_direct_call(self, milestones, message):
        with pytest.raises(ValueError, match=message):
            run_alone(get_objective("f1"), OptimizerConfig(), [0.5], 5, milestones)
        with pytest.raises(ValueError, match=message):
            run_experiment(get_objective("f1"), self.ADAM, (0,), [0.5], 5, milestones)


class TestResolveTheta0:
    def test_explicit_vector(self):
        out = resolve_theta0([-1.0, 2.0], 2, 0)
        assert np.array_equal(out, [-1.0, 2.0])

    @pytest.mark.parametrize("seed", [0, 1, 2**31])
    def test_explicit_vector_is_a_fresh_copy_whatever_the_seed(self, seed):
        start = np.array([-1.0, 2.0])
        out = resolve_theta0(start, 2, seed)
        assert out.tobytes() == start.tobytes() and out.dtype == np.float64
        assert not np.shares_memory(out, start)
        out[0] = 5.0
        assert start.tolist() == [-1.0, 2.0]
        assert resolve_theta0(start, 2, seed).tolist() == [-1.0, 2.0]

    def test_uniform_rule(self):
        rule = {"rule": "uniform", "low": -1.0, "high": 1.0}
        a = resolve_theta0(rule, 10, 3)
        b = resolve_theta0(rule, 10, 3)
        assert a.shape == (10,)
        assert np.all((a >= -1.0) & (a <= 1.0))
        assert np.array_equal(a, b)
        assert a.tobytes() == make_rng(3).uniform(-1.0, 1.0, size=10).tobytes()
        c = resolve_theta0(rule, 10, 4)
        assert not np.array_equal(a, c)

    def test_uniform_rule_bounds(self):
        # low == high draws that value; low above high names both keys
        assert resolve_theta0({"rule": "uniform", "low": 2.0, "high": 2.0}, 3, 0).tolist() == [2.0] * 3
        with pytest.raises(ValueError, match=r"^theta0\.low 2\.0 is above theta0\.high -2\.0$"):
            resolve_theta0({"rule": "uniform", "low": 2.0, "high": -2.0}, 3, 0)

    @pytest.mark.parametrize("low, high", [(-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0)])
    def test_uniform_rule_span_must_be_finite(self, low, high):
        with pytest.raises(ValueError, match=r"^theta0\.high - theta0\.low overflows: "):
            resolve_theta0({"rule": "uniform", "low": low, "high": high}, 3, 0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            resolve_theta0({"rule": "normal"}, 2, 0)


class TestSingleRun:
    def test_sgd_quadratic_closed_form(self):
        # alpha 0.25 on f(x) = x^2: theta <- theta - 0.25 * 2 theta = theta / 2,
        # exact in binary floating point
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(obj, OptimizerConfig(rule="sgd", alpha=0.25), [1.0], 4)
        assert np.array_equal(traj.t, [1, 2, 3, 4])
        assert np.array_equal(traj.loss, [0.25, 0.0625, 0.015625, 0.00390625])
        assert np.array_equal(traj.alpha, np.full(4, 0.25))
        assert np.array_equal(traj.phi_mean, np.ones(4))
        assert np.array_equal(traj.step_norm, [0.5, 0.25, 0.125, 0.0625])
        assert traj.final_params[0] == 0.0625
        assert traj.status == "ok"

    @pytest.mark.parametrize("iterations", [1, 5, BLOCK_ITERATIONS + 3])
    def test_one_objective_call_per_iteration(self, iterations):
        # one call at the starts gives the first gradient; each step's call
        # gives its losses and the next step's gradient
        obj = get_objective("rosenbrock")
        calls = []
        counted = dataclasses.replace(obj, fn=lambda x: calls.append(x.shape) or obj.fn(x))
        stack = ConfigStack([OptimizerConfig(rule="adam", alpha=1e-3),
                             OptimizerConfig(rule="angulargrad", alpha=1e-3)])
        trajectories = single_run(counted, stack, np.zeros((2, 2)), iterations)
        assert [(t.status, len(t)) for t in trajectories] == [("ok", iterations)] * 2
        assert calls == [(2, 2)] * (iterations + 1)

    def test_phi_mean_recorded_for_angular(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(obj, OptimizerConfig(rule="angulargrad", alpha=0.1), [1.0], 3)
        assert np.all(traj.phi_mean >= 0.5)
        assert np.all(traj.phi_mean <= 1.0)

    def test_milestone_divides_before_step(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(
            obj,
            OptimizerConfig(rule="sgd", alpha=0.25),
            [1.0],
            2,
            lr_milestones=((2, 2.0),),
        )
        assert np.array_equal(traj.alpha, [0.25, 0.125])
        # theta_1 = 0.5; theta_2 = 0.5 - 0.125 * 1.0 = 0.375
        assert traj.final_params[0] == 0.375

    def test_record_params(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(
            obj, OptimizerConfig(rule="sgd", alpha=0.25), [1.0], 3, record_params=True
        )
        assert traj.thetas is not None
        assert traj.thetas.shape == (3, 1)
        assert np.array_equal(traj.thetas[:, 0], [0.5, 0.25, 0.125])
        assert traj.final_params[0] == traj.thetas[-1, 0]

    def test_abort_on_nonfinite_loss(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(obj, OptimizerConfig(rule="sgd", alpha=1e200), [1.0], 10)
        assert traj.status.startswith("aborted: non-finite loss")
        assert len(traj) == 1

    def test_abort_on_nonfinite_step(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(obj, OptimizerConfig(rule="sgd", alpha=1e200), [1e200], 10)
        assert traj.status.startswith("aborted: non-finite parameter")
        assert len(traj) == 0

    def test_non_positive_hgd_rate_aborts_its_row(self):
        # f = x^2 from 1: alpha_2 = 0.1 + 10 * 1.6 * 2 = 32.1 throws x to -50.56,
        # then alpha_3 = 32.1 + 10 * -101.12 * 1.6 < 0 would step uphill
        obj = get_objective("quadratic", dim=1)
        hot = OptimizerConfig(rule="sgd", alpha=0.1, hypergrad_omega=10.0)
        stack = ConfigStack([hot, OptimizerConfig(rule="sgd", alpha=0.1)])
        aborted, plain = single_run(obj, stack, [[1.0], [1.0]], 5)
        assert aborted.status == "aborted: non-positive learning rate at iteration 3"
        assert len(aborted) == 2 and np.allclose(aborted.alpha, [0.1, 32.1])
        assert np.allclose(aborted.final_params, [-50.56])  # before the uphill step
        assert plain.status == "ok" and len(plain) == 5

    def test_non_positive_hgd_rate_aborts_its_row_at_width_three(self):
        # the HGD row is row 1 of a (2, 3) stack, so a rate read as flat
        # indices would name other rows: f = |x|^2 from (1, 1, 1) gives
        # alpha_2 = 0.1 + 10 * 3 * 1.6 * 2 = 96.1, then a negative alpha_3
        obj = get_objective("quadratic", dim=3)
        hot = OptimizerConfig(rule="sgd", alpha=0.1, hypergrad_omega=10.0)
        stack = ConfigStack([OptimizerConfig(rule="sgd", alpha=0.1), hot])
        plain, aborted = single_run(obj, stack, np.ones((2, 3)), 5)
        assert aborted.status == "aborted: non-positive learning rate at iteration 3"
        assert len(aborted) == 2 and np.allclose(aborted.alpha, [0.1, 96.1])
        assert plain.status == "ok" and len(plain) == 5
        assert np.array_equal(plain.alpha, np.full(5, 0.1))

    @pytest.mark.filterwarnings("error")
    def test_perpendicular_angle_and_overflow_do_not_warn(self):
        # the slope is 2 right of 0 and -0.5 left of it: the angular row's
        # second step meets 2 * -0.5 == -1, a zero angle denominator; the sgd
        # rows overflow in their first step and in their first loss
        def kink(x):
            slope = np.where(x >= 0.0, 2.0, -0.5)
            return slope[..., 0] * x[..., 0], slope

        obj = Objective("kink", 1, kink, ((-1.0, 1.0),))
        stack = ConfigStack([OptimizerConfig(rule="angulargrad", alpha=0.1),
                             OptimizerConfig(rule="sgd", alpha=1e308),
                             OptimizerConfig(rule="sgd", alpha=1e-3)])
        angular, step_overflow, loss_overflow = single_run(
            obj, stack, np.array([[0.0], [0.0], [1e308]]), 6)
        assert angular.status == "ok" and len(angular) == 6
        assert np.isfinite(angular.loss).all()
        # phi at a_min = arctan(2), the first angle, which the right angle did not undercut
        assert angular.phi_mean[1] == angular_coefficient(np.arctan([2.0]), "cos", 0.5, 0.5)[0]
        assert step_overflow.status == ("aborted: non-finite parameter at iteration 1, "
                                        "coordinate 0, rule sgd")
        assert len(step_overflow) == 0
        assert loss_overflow.status == "aborted: non-finite loss at iteration 1"
        assert len(loss_overflow) == 1

    def test_aborted_run_keeps_theta_columns(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(
            obj, OptimizerConfig(rule="sgd", alpha=1e200), [1e200], 10, record_params=True
        )
        assert traj.thetas is not None and traj.thetas.shape == (0, 1)
        assert "".join(trajectory_to_csv(traj)).splitlines()[0].endswith(",theta_0")


def traced_peak(call):
    """``call()`` and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlocks:
    """single_run holds one block of iterates and phi vectors at a time."""

    def test_peak_memory_is_one_block_not_the_run(self):
        # The regret protocol's three optimizers at dim 1000 for 2000
        # iterations: the whole path and phi vectors would be 2 x 2000 x 3 x
        # 1000 float64s (96 MB).
        objective = get_objective("quadratic", dim=1000)
        optimizers = {
            name: OptimizerConfig(**fields)
            for name, fields in DEFAULT_REGRET["optimizers"].items()
        }
        theta0 = {"rule": "uniform", "low": -1.0, "high": 1.0}
        runs, peak = traced_peak(lambda: run_experiment(objective, optimizers, (0,), theta0, 2000))
        assert [len(trajs[0]) for trajs in runs.values()] == [2000] * 3
        assert peak < 20e6

    def test_wide_stack_peak_is_the_budget_not_the_blocks(self):
        # 10 seeds of the regret protocol's three optimizers at dim 1000: 128
        # iterations of a (30, 1000) stack would be two 31 MB block buffers.
        # The peak is the stack's state (the peak of a one-iteration run),
        # one byte budget of blocks and the (4, iterations, 30) records.
        objective = get_objective("quadratic", dim=1000)
        optimizers = {
            name: OptimizerConfig(**fields)
            for name, fields in DEFAULT_REGRET["optimizers"].items()
        }
        theta0 = {"rule": "uniform", "low": -1.0, "high": 1.0}
        seeds, iterations = range(10), 200

        def run(iterations):
            return run_experiment(objective, optimizers, seeds, theta0, iterations)

        run(1)  # loads what a first run loads
        _, state = traced_peak(lambda: run(1))
        runs, peak = traced_peak(lambda: run(iterations))
        assert [len(traj) for trajs in runs.values() for traj in trajs] == [iterations] * 30
        records = 4 * iterations * 30 * 8
        assert peak < state + BLOCK_BYTES + records

    @pytest.mark.parametrize("record_params", [False, True])
    def test_row_aborting_mid_block_matches_its_lone_run(self, record_params):
        # sgd at alpha 2.132 on |x|^2 scales x by -3.264 a step, so its loss
        # overflows near iteration 300: inside a block, not at its edge
        obj = get_objective("quadratic", dim=3)
        configs = [
            OptimizerConfig(rule="adam", alpha=0.1),
            OptimizerConfig(rule="sgd", alpha=2.132),
            OptimizerConfig(rule="angulargrad", alpha=0.1),
        ]
        starts = make_rng(0).uniform(-1.0, 1.0, size=(3, 3))
        iterations = 3 * BLOCK_ITERATIONS + 50
        stacked = single_run(obj, ConfigStack(configs), starts, iterations,
                             record_params=record_params)
        aborted = stacked[1]
        assert aborted.status.startswith("aborted: non-finite loss")
        assert BLOCK_ITERATIONS < len(aborted) < iterations
        assert len(aborted) % BLOCK_ITERATIONS not in (0, 1)
        assert [len(stacked[0]), len(stacked[2])] == [iterations] * 2
        for config, start, got in zip(configs, starts, stacked):
            want = run_alone(obj, config, start, iterations, record_params=record_params)
            assert got.status == want.status
            for field in ("t", "loss", "alpha", "phi_mean", "step_norm", "final_params"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            if record_params:
                assert got.thetas.tobytes() == want.thetas.tobytes()
                # the block-wise norms are the whole path's, bit for bit
                steps = np.diff(np.vstack([start, got.thetas]), axis=0)
                with np.errstate(over="ignore"):  # the diverging row's last steps
                    norms = np.sqrt(np.vecdot(steps, steps))
                assert got.step_norm.tobytes() == norms.tobytes()
            else:
                assert got.thetas is None


class TestTrajectoryViews:
    """A stack's trajectories are read-only views of the records they share."""

    def test_fields_view_the_shared_records_and_are_read_only(self):
        obj = get_objective("quadratic", dim=3)
        configs = [
            OptimizerConfig(rule="adam", alpha=0.1),
            OptimizerConfig(rule="sgd", alpha=2.132),  # aborts near iteration 300
            OptimizerConfig(rule="angulargrad", alpha=0.1),
            OptimizerConfig(rule="sgd", alpha=0.1),
        ]
        starts = make_rng(0).uniform(-1.0, 1.0, size=(4, 3))
        trajs = single_run(obj, ConfigStack(configs), starts, 400, record_params=True)
        assert trajs[1].status.startswith("aborted") and 0 < len(trajs[1]) < 400
        first = trajs[0]
        records, path = first.loss.base, first.thetas.base
        assert records.shape == (4, 400, 4) and path.shape == (400, 4, 3)
        for traj in trajs:
            for field in ("loss", "alpha", "step_norm"):
                assert np.shares_memory(getattr(traj, field), records)
            assert np.shares_memory(traj.thetas, path)
            assert np.shares_memory(traj.t, first.t)
            assert np.shares_memory(traj.final_params, first.final_params.base)
            for field in ("t", "loss", "alpha", "phi_mean", "step_norm", "thetas", "final_params"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(traj, field)[0] = 0
        assert np.shares_memory(trajs[2].phi_mean, records)  # angular: its own column
        assert np.shares_memory(trajs[1].phi_mean, trajs[3].phi_mean)  # one shared ones vector
        assert not np.shares_memory(trajs[0].phi_mean, records)
        regret = compute_regret(trajs[0], obj)
        assert np.shares_memory(regret.t, first.t)

    def test_default_rosenbrock_peak_is_its_records_and_one_budget(self):
        # the default rosenbrock run keeps its (4, 5000, 8) records and its
        # (5000, 8, 2) path; copying each run's rows of them would add 2.2 MB
        config = DEFAULT_ROSENBROCK
        optimizers = {name: OptimizerConfig(**fields)
                      for name, fields in config["optimizers"].items()}
        iterations, rows = config["iterations"], len(optimizers) * len(config["seeds"])
        runs, peak = traced_peak(lambda: run_experiment(
            get_objective("rosenbrock"), optimizers, config["seeds"], config["theta0"],
            iterations, config["lr_milestones"], record_params=True,
        ))
        assert [len(traj) for trajs in runs.values() for traj in trajs] == [iterations] * rows
        records, path = 4 * iterations * rows * 8, iterations * rows * 2 * 8
        assert peak < records + path + BLOCK_BYTES


class TestRunExperiment:
    @staticmethod
    def run():
        optimizers = {
            "adam": OptimizerConfig(rule="adam", alpha=0.1),
            "ag_cos": OptimizerConfig(rule="angulargrad", alpha=0.1),
        }
        return run_experiment(get_objective("f1"), optimizers, (0, 1), [-1.0], 20)

    def test_keys_and_counts(self):
        runs = self.run()
        assert list(runs) == ["adam", "ag_cos"]
        assert all(len(v) == 2 for v in runs.values())

    def test_repeat_runs_identical(self):
        a = self.run()
        b = self.run()
        assert "".join(trajectory_to_csv(a["adam"][0])) == "".join(trajectory_to_csv(b["adam"][0]))


# Rates from well-behaved to divergent, so that some rows abort mid-run.
_CONFIGS = st.fixed_dictionaries({
    "rule": st.sampled_from(RULES),
    "alpha": st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
    "beta1": st.sampled_from([0.0, 0.9, 0.95]),
    "beta2": st.sampled_from([0.9, 0.99, 0.999]),
    "momentum_gamma": st.sampled_from([0.0, 0.5, 0.9]),
    "weight_decay_lambda": st.sampled_from([0.0, 0.0, 0.01, 0.5]),
    "hypergrad_omega": st.sampled_from([0.0, 0.0, 1e-6, 1e-2]),
    "angle_variant": st.sampled_from(ANGLE_VARIANTS),
    "lambda1": st.sampled_from([0.5, 0.3]),
    "gc_enabled": st.booleans(),
})
_TASKS = st.one_of(
    st.tuples(st.just("rosenbrock"), st.integers(2, 5)),
    st.tuples(st.just("quadratic"), st.integers(1, 6)),
    st.tuples(st.sampled_from(["f1", "f2", "f3"]), st.none()),
)


class TestStackedRuns:
    """Each row of a stacked run equals the same run made alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        task=_TASKS,
        configs=st.lists(_CONFIGS, min_size=1, max_size=5),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=3),
        iterations=st.integers(1, 60),
        milestones=st.lists(
            st.tuples(st.integers(1, 60), st.sampled_from([0.5, 2.0, 10.0])),
            max_size=2, unique_by=lambda m: m[0],
        ),
        record_params=st.booleans(),
    )
    def test_rows_match_single_runs(
        self, task, configs, seeds, iterations, milestones, record_params
    ):
        name, dim = task
        objective = get_objective(name, dim=dim)
        optimizers = {f"o{i}": OptimizerConfig(**c) for i, c in enumerate(configs)}
        rule = {"rule": "uniform", "low": -2.0, "high": 2.0}

        def alone(config, seed):
            theta0 = resolve_theta0(rule, objective.dim, seed)
            return run_alone(objective, config, theta0, iterations, milestones, record_params)

        expected = {n: [alone(c, s) for s in seeds] for n, c in optimizers.items()}
        runs = run_experiment(
            objective, optimizers, seeds, rule, iterations, milestones, record_params
        )
        assert list(runs) == list(expected)
        for n, trajs in expected.items():
            for want, got in zip(trajs, runs[n], strict=True):
                assert got.status == want.status
                assert "".join(trajectory_to_csv(got)) == "".join(trajectory_to_csv(want))
                assert got.final_params.tobytes() == want.final_params.tobytes()


class TestRegret:
    def test_synthetic_known_minimum(self):
        traj = make_traj([3.0, 2.0, 1.0])
        rec = compute_regret(traj, get_objective("f3"))
        assert np.array_equal(rec.cumulative, [3.0, 5.0, 6.0])
        assert np.array_equal(rec.average, [3.0, 2.5, 2.0])

    def test_overflowing_sum_reads_inf_without_a_warning(self):
        rec = compute_regret(make_traj([1e308, 1e308]), get_objective("f3"))
        assert rec.cumulative.tolist() == [1e308, math.inf]
        assert rec.average.tolist() == [1e308, math.inf]

    def test_average_regret_decays_on_quadratic(self):
        obj = get_objective("quadratic", dim=10)
        theta0 = make_rng(0).uniform(-1.0, 1.0, size=10)
        traj = run_alone(obj, OptimizerConfig(rule="adam", alpha=0.1), theta0, 1000)
        rec = compute_regret(traj, obj)
        avg = {int(t): a for t, a in zip(rec.t, rec.average)}
        assert avg[500] < avg[250]
        assert avg[1000] < avg[500]


class TestRosenbrockHelpers:
    def test_minimum_is_stationary(self):
        obj = get_objective("rosenbrock")
        traj = run_alone(obj, OptimizerConfig(rule="adam", alpha=1e-3), [1.0, 1.0], 20)
        assert np.all(traj.loss == 0.0)
        assert np.array_equal(traj.final_params, [1.0, 1.0])

    def test_grid_eval_values(self):
        obj = get_objective("rosenbrock")
        xs, ys, Z = grid_eval(obj, (0.0, 2.0), (0.0, 1.0), 3)
        assert np.array_equal(xs, [0.0, 1.0, 2.0])
        assert np.array_equal(ys, [0.0, 0.5, 1.0])
        assert Z.shape == (3, 3)
        assert Z[0, 0] == 1.0  # f(0, 0)
        assert Z[2, 1] == 0.0  # f(1, 1)

    def test_grid_eval_needs_2d(self):
        with pytest.raises(ValueError):
            grid_eval(get_objective("f1"), (0, 1), (0, 1), 3)


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


class TestTailOscillation:
    def test_alternating_thetas_measure_amplitude(self):
        traj = make_traj(
            [1.0, 1.0, 1.0, 1.0], thetas=[[0.1], [-0.1], [0.1], [-0.1]]
        )
        assert tail_oscillation(traj, 4) == pytest.approx(0.1, abs=1e-15)

    def test_constant_tail_is_zero(self):
        traj = make_traj([1.0, 1.0, 1.0], thetas=[[0.5], [0.5], [0.5]])
        assert tail_oscillation(traj, 2) == 0.0

    def test_loss_fallback(self):
        traj = make_traj([1.0, 1.0, 3.0, 3.0])
        assert tail_oscillation(traj, 4) == 1.0  # population std of {1,1,3,3}

    def test_window_validation(self):
        traj = make_traj([1.0, 2.0])
        with pytest.raises(ValueError):
            tail_oscillation(traj, 0)
        with pytest.raises(ValueError):
            tail_oscillation(traj, 3)


class TestThresholdAndAggregate:
    def test_iterations_to_threshold(self):
        assert iterations_to_threshold(np.array([5.0, 2.0, 0.5]), 1.0, 3) == 3
        assert iterations_to_threshold(np.array([0.5, 2.0]), 1.0, 2) == 1
        assert iterations_to_threshold(np.array([5.0, 2.0]), 1.0, 300) == 301

    def test_aggregate_summary(self):
        runs = {
            "a": [make_traj([2.0, 1.0]), make_traj([4.0, 3.0])],
            "b": [make_traj([0.5, 0.0005])],
        }
        out = aggregate(runs, iterations=2)
        assert out["a"]["final_loss"] == [1.0, 3.0]
        assert out["a"]["best_loss"] == [1.0, 3.0]
        assert out["a"]["mean"] == 2.0
        assert out["a"]["std"] == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert out["a"]["iters_to_threshold"] == [3, 3]  # never below 1e-3
        assert out["b"]["std"] == 0.0
        assert out["b"]["iters_to_threshold"] == [2]
        assert out["a"]["status"] == ["ok", "ok"]

    def test_aggregate_custom_threshold(self):
        runs = {"a": [make_traj([5.0, 0.2, 0.05])]}
        out = aggregate(runs, 3, threshold_fn=lambda t: (t.loss, 0.25))
        assert out["a"]["iters_to_threshold"] == [2]

    def test_diverged_finals_do_not_warn(self):
        runs = {"a": [make_traj([1.0, np.inf]), make_traj([1.0, np.inf])]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = aggregate(runs, 2)
        assert summary["a"]["mean"] == np.inf
        assert np.isnan(summary["a"]["std"])

    def test_default_threshold_constant(self):
        assert LOSS_THRESHOLD_1D == 1e-3


class TestSerialization:
    def test_trajectory_csv_shape(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(obj, OptimizerConfig(rule="sgd", alpha=0.25), [1.0], 4)
        text = "".join(trajectory_to_csv(traj))
        lines = text.splitlines()
        assert lines[0] == "t,loss,alpha,phi_mean,step_norm"
        assert len(lines) == 5
        assert lines[1] == "1,0.25,0.25,1.0,0.5"

    def test_trajectory_csv_with_params(self):
        obj = get_objective("quadratic", dim=1)
        traj = run_alone(
            obj, OptimizerConfig(rule="sgd", alpha=0.25), [1.0], 2, record_params=True
        )
        lines = "".join(trajectory_to_csv(traj)).splitlines()
        assert lines[0] == "t,loss,alpha,phi_mean,step_norm,theta_0"
        assert lines[1].endswith(",0.5")

    def test_csv_floats_round_trip(self):
        obj = get_objective("f2")
        traj = run_alone(obj, OptimizerConfig(rule="adam", alpha=0.1), [-1.0], 50)
        lines = "".join(trajectory_to_csv(traj)).splitlines()[1:]
        for i, line in enumerate(lines):
            cells = line.split(",")
            assert float(cells[1]) == traj.loss[i]
            assert float(cells[4]) == traj.step_norm[i]

    def test_csv_formats_each_float_by_its_bits(self):
        # a constant column is formatted once; 0.0 and -0.0 compare equal but
        # keep their own text
        columns = [
            np.full(3, 0.1),
            np.full(3, -0.0),
            np.array([0.0, -0.0, 0.0]),
            np.array([1e-308, 2.5, 332946.9625815]),
            np.arange(12.0).reshape(3, 4).T[1],  # a strided view
        ]
        text = "".join(_csv(["t", "a", "b", "c", "d", "e"], [1, 2, 3], *columns))
        want = [f"{t},{','.join(repr(float(c[t - 1])) for c in columns)}" for t in (1, 2, 3)]
        assert text == "\n".join(["t,a,b,c,d,e", *want]) + "\n"
        assert want[1] == "2,0.1,-0.0,-0.0,2.5,5.0"

    @pytest.mark.parametrize(
        "n", [0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 2]
    )
    def test_trajectory_csv_across_chunk_boundaries(self, n):
        k = np.arange(n)
        first = k < CSV_BLOCK_ROWS
        traj = Trajectory(
            t=k + 1,
            loss=k * 0.1,
            alpha=np.where(first, 0.1, k * 1e-3),  # constant in the first block only
            phi_mean=np.where(k % 3 == 0, -0.0, 0.0),  # both zeros, by their bits
            step_norm=np.where(first, -0.0, 0.0),  # each block constant, signs differ
            thetas=np.stack([k / 7.0, np.full(n, 1.5)], axis=1),
            final_params=np.zeros(2),
        )
        columns = [traj.loss, traj.alpha, traj.phi_mean, traj.step_norm, *traj.thetas.T]
        rows = [",".join([str(i + 1), *(repr(float(c[i])) for c in columns)]) for i in range(n)]
        header = "t,loss,alpha,phi_mean,step_norm,theta_0,theta_1"
        chunks = trajectory_to_csv(traj)
        assert "".join(chunks) == "\n".join([header, *rows]) + "\n"
        assert len(chunks) == 1 + -(-n // CSV_BLOCK_ROWS)

    def test_regret_csv(self):
        rec = compute_regret(make_traj([3.0, 2.0, 1.0]), get_objective("f3"))
        lines = "".join(regret_to_csv(rec)).splitlines()
        assert lines[0] == "t,regret,avg_regret"
        assert lines[1] == "1,3.0,3.0"
        assert lines[3] == "3,6.0,2.0"

    def test_grid_csv_row_major(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([10.0, 20.0])
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        lines = "".join(grid_to_csv(xs, ys, Z)).splitlines()
        assert lines[0] == "x,y,f"
        assert lines[1] == "0.0,10.0,1.0"
        assert lines[2] == "1.0,10.0,2.0"  # x varies fastest
        assert lines[3] == "0.0,20.0,3.0"

    def test_summary_json(self):
        out = aggregate({"a": [make_traj([1.0])]}, 1)
        text = summary_to_json(out)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["a"]["mean"] == 1.0

    def test_write_text_atomic(self, tmp_path):
        target = tmp_path / "sub" / "out.csv"
        write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"
        write_text_atomic(target, "replaced\n")
        assert target.read_text() == "replaced\n"
        leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_write_text_atomic_streams_chunks(self, tmp_path):
        target = tmp_path / "out.csv"
        write_text_atomic(target, iter(["a,b\n", "1,2\n"]))
        assert target.read_text() == "a,b\n1,2\n"

    def test_failing_chunk_leaves_old_bytes_and_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            write_text_atomic(target, chunks())
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestDocumentedGaps:
    """Rosenbrock behavior at shared default rates differs from the published
    trajectories, which used per-method tuning.  These two examples encode the
    published expectation and are kept as strict expected failures so any
    behavior change is flagged."""

    @pytest.mark.xfail(
        strict=True,
        reason="at alpha 1e-3 the adaptive rules stop short of (1,1) in 5000 iters",
    )
    def test_angular_reaches_minimum_at_default_rate(self):
        obj = get_objective("rosenbrock")
        traj = run_alone(
            obj,
            OptimizerConfig(rule="angulargrad", alpha=1e-3),
            [-2.0, 2.0],
            5000,
        )
        assert np.linalg.norm(traj.final_params - 1.0) <= 0.1

    @pytest.mark.xfail(
        strict=True,
        reason="sgd at alpha 1e-3 tracks the valley floor to within 0.2 of (1,1)",
    )
    def test_sgd_stays_far_from_minimum(self):
        obj = get_objective("rosenbrock")
        traj = run_alone(
            obj, OptimizerConfig(rule="sgd", alpha=1e-3), [-2.0, 2.0], 5000
        )
        assert np.linalg.norm(traj.final_params - 1.0) > 0.5
