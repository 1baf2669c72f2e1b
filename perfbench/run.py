#!/usr/bin/env python3
"""Benchmark of the angular-optim CLI protocols.

Run from the repository root:

    python3 perfbench/run.py --workload rosenbrock --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes
    python3 perfbench/run.py --smoke               # self-check of the benchmark
    python3 perfbench/run.py --pin                 # re-pin the seed-0 artifact digests

Each workload calls ``angular_optim.cli.main`` in a warm process, one
invocation after another (closed loop, one client), for ``--seconds``
seconds.  Every invocation's artifacts pass the digest gate.  ``--trace 1``
alternates untraced and traced invocations in this process and reports the
per-layer split (see spans.py and README.md).

``--trace 0`` reports the end-to-end metrics.  The speed of a shared host's
CPU drifts by tens of percent, both over minutes and from one invocation to
the next, so every invocation of the program runs at the same time as one of
a control, a frozen copy of the package in ``control/``.  Both run in warm
worker processes (worker.py) pinned to the same CPU, which time-slices them
and so gives both the same speed.  A time is the program's CPU seconds over
the control's, scaled by the control's CPU seconds on the machine the
constants below were recorded on.

The last line of standard output is the JSON result.
"""

import os

# BLAS runs single-threaded so that no run has more threads than nproc; set
# before numpy loads, and inherited by every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No workload sets the package's own thread pool: every invocation is serial.
os.environ.pop("ANGULAR_OPTIM_THREADS", None)

import argparse
import hashlib
import json
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"
CONTROL = HERE / "control"
WORKER = HERE / "worker.py"
DEFAULT_SEED = 0
SETUP_REPS = 7
CHILD_TIMEOUT_S = 170
NPROC = len(os.sched_getaffinity(0))
# The one CPU that the program and the control share in --trace 0.
CPU = min(os.sched_getaffinity(0))
# Median CPU seconds of the control, per workload and for its import, on a
# shared 2-core x86_64 VM (Python 3.11.7, numpy 2.4.6).  They only fix the
# scale of protocol_s and setup_s; changing them changes every reading.
CONTROL_PROTOCOL_S = {"rosenbrock": 2.8, "mlp": 4.8}
CONTROL_SETUP_S = 0.13

ROSENBROCK_OPTIMIZERS = (
    "sgd", "rmsprop", "adam", "adamw", "diffgrad", "adabelief",
    "angulargrad_cos", "angulargrad_tan",
)
MLP_OPTIMIZERS = (
    "adam", "adamw", "diffgrad", "adabelief", "angulargrad_cos", "angulargrad_tan",
)
# Non-default rosenbrock starts are drawn from this part of the plotted grid
# box; plain SGD at alpha 1e-3 diverges from its low-y corners.
ROSENBROCK_X0 = (-2.5, 2.0)
ROSENBROCK_Y0 = (2.0, 3.2)
MLP_SEEDS = 5

SETUP_CHILD = (
    "import os, sys, time; os.sched_setaffinity(0, {int(sys.argv[2])}); "
    "sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import angular_optim.cli; print(time.process_time() - t)"
)


@dataclass
class Inputs:
    """What one workload hands the program: its CLI arguments."""

    argv: list
    files: set
    info: dict = field(default_factory=dict)


def rosenbrock_inputs(seed: int, workdir: Path) -> Inputs:
    argv, info = ["rosenbrock"], {"theta0": [-2.0, 2.0]}
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        theta0 = [round(rng.uniform(*ROSENBROCK_X0), 3), round(rng.uniform(*ROSENBROCK_Y0), 3)]
        config = workdir / "rosenbrock.json"
        config.write_text(json.dumps({"theta0": theta0}))
        argv += ["--config", str(config)]
        info = {"theta0": theta0}
    files = {f"rosenbrock_{name}_s0.csv" for name in ROSENBROCK_OPTIMIZERS}
    files |= {"rosenbrock_summary.json", "rosenbrock_grid.csv", "rosenbrock_overlay.svg"}
    return Inputs(argv, files, info)


def mlp_inputs(seed: int, workdir: Path) -> Inputs:
    seeds = [MLP_SEEDS * seed + i for i in range(MLP_SEEDS)]
    argv = ["mlp", "--seeds", ",".join(map(str, seeds))]
    files = {f"mlp_{name}_s{s}.csv" for name in MLP_OPTIMIZERS for s in seeds}
    files.add("mlp_summary.json")
    return Inputs(argv, files, {"protocol_seeds": seeds})


WORKLOADS = {
    "rosenbrock": rosenbrock_inputs,
    "mlp": mlp_inputs,
}


# ---------------------------------------------------------------------------
# Correctness gate


def digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class Gate:
    """Counts invocations and the ones whose exit code or artifacts miss.

    With a pinned reference every artifact must match its pinned sha256;
    without one the first good invocation becomes the reference, so every
    later invocation in the run must write byte-identical files.
    """

    def __init__(self, files: set, reference: dict | None):
        self.files = files
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, rc, out: Path) -> bool:
        self.attempted += 1
        got = digests(out)
        problem = None
        if rc != 0:
            problem = f"exit code {rc}"
        elif set(got) != self.files:
            problem = (
                f"file set: missing {sorted(self.files - set(got))}, "
                f"unexpected {sorted(set(got) - self.files)}"
            )
        elif self.reference is None:
            self.reference = got
        else:
            bad = sorted(n for n in got if got[n] != self.reference.get(n))
            if bad:
                problem = f"bytes differ from reference: {bad}"
        if problem:
            self.failures.append(problem)
        return problem is None


def pin_key() -> dict:
    """The environment a pinned digest is valid in."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, v in __cpu_features__.items() if v),
    }


def pinned_digests(workload: str, seed: int):
    """(digests or None, why) for this workload, seed and environment."""
    if seed != DEFAULT_SEED:
        return None, f"seed {seed} is not the pinned seed {DEFAULT_SEED}"
    if not PINS.is_file():
        return None, "no pins file"
    pins = json.loads(PINS.read_text())
    if pins.get("env") != pin_key():
        return None, "pins were taken in another environment"
    if workload not in pins.get("workloads", {}):
        return None, f"no pins for {workload}"
    return pins["workloads"][workload], "pinned"


# ---------------------------------------------------------------------------
# Measurement


def load_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from angular_optim import cli

    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"angular_optim imported from {where}, not from {SRC}")
    return cli


def invoke(cli, argv: list, out: Path):
    """One protocol invocation; returns (exit code, wall seconds)."""
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv + ["--out", str(out)])
    except SystemExit as err:
        rc = err.code
    except Exception:
        traceback.print_exc()
        rc = "exception"
    return rc, time.perf_counter() - t0


def run_child(args: list):
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc


def setup_pair() -> tuple:
    """CPU seconds for a fresh interpreter to import angular_optim.cli: the
    program's and the control's, started together on one CPU."""
    procs = [
        subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(root), str(CPU)], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for root in (SRC, CONTROL)
    ]
    try:
        times = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(stderr)
                raise RuntimeError(f"fresh interpreter could not import angular_optim.cli: {proc.args}")
            times.append(float(stdout.strip().splitlines()[-1]))
        return tuple(times)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def start_worker(root: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(WORKER), str(root), str(CPU)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def stop_workers(workers: list) -> None:
    for worker in workers:
        worker.kill()
        worker.wait()
        worker.stdin.close()
        worker.stdout.close()


def colocated(workers: list, argvs: list) -> list:
    """Start one call in each worker at once; return every worker's reply."""
    for worker, argv in zip(workers, argvs):
        worker.stdin.write(json.dumps(argv) + "\n")
        worker.stdin.flush()
    replies = []
    for worker in workers:
        line = worker.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark worker {worker.args} exited with code {worker.wait()}")
        replies.append(json.loads(line))
    return replies


def import_split(reps: int) -> dict:
    """Median package-import time split by -X importtime into numpy, the
    package's own modules (self time) and everything else."""
    rows = []
    for _ in range(reps):
        proc = run_child(["-X", "importtime", "-c",
                          "import sys; sys.path.insert(0, sys.argv[1]); import angular_optim.cli",
                          str(SRC)])
        self_us, cum_us = {}, {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            own, cum, name = line.split(":", 1)[1].split("|")
            self_us[name.strip()] = int(own)
            cum_us[name.strip()] = int(cum)
        total = cum_us.get("angular_optim.cli", 0)
        numpy = cum_us.get("numpy", 0)
        package = sum(v for k, v in self_us.items() if k.startswith("angular_optim"))
        rows.append((total, numpy, package, total - numpy - package))
    med = [statistics.median(col) / 1e6 for col in zip(*rows)]
    return {
        "import.total_s": (med[0], "s"),
        "import.numpy_s": (med[1], "s"),
        "import.angular_optim_self_s": (med[2], "s"),
        "import.other_s": (med[3], "s"),
    }


def timed_loop(seconds: float, once) -> None:
    """Call ``once`` at least once, until the next call would end past ``seconds``."""
    costs = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        once()
        costs.append(time.perf_counter() - start)
        if time.perf_counter() - t0 + statistics.median(costs) > seconds:
            return


def tail_percentile(samples: list):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return {"percentile": round(100.0 * i / (n - 1), 1), "value": sorted(samples)[i]}


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"


def environment(workload: str, seed: int, inputs: Inputs, pin_state: str) -> dict:
    key = pin_key()
    return {
        "workload": workload,
        "seed": seed,
        "inputs": inputs.info,
        "nproc": NPROC,
        "python": key["python"],
        "numpy": key["numpy"],
        "blas": blas_info(),
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ANGULAR_OPTIM_THREADS": os.environ.get("ANGULAR_OPTIM_THREADS"),
        "timed_cpu": CPU,
        "gate": pin_state,
    }


def prepare(workload: str, seed: int):
    """A fresh work directory and the workload's inputs."""
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir, WORKLOADS[workload](seed, workdir)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 setup_reps: int = SETUP_REPS) -> dict:
    workdir, inputs = prepare(workload, seed)
    reference, pin_state = pinned_digests(workload, seed)
    gate = Gate(inputs.files, reference)
    out = workdir / "out"
    detail = {"env": environment(workload, seed, inputs, pin_state)}
    metrics: dict = {}

    if trace == 0:
        setup = [setup_pair() for _ in range(setup_reps)]
        outs = (out, workdir / "control_out")
        # The control is held to its own first invocation, not to the pins,
        # which follow the program when it changes its artifacts on purpose.
        gates = (gate, Gate(inputs.files, None))
        pairs = []

        def pair():
            for path in outs:
                shutil.rmtree(path, ignore_errors=True)
            replies = colocated(workers, [inputs.argv + ["--out", str(path)] for path in outs])
            for g, reply, path in zip(gates, replies, outs):
                g.check(reply["rc"], path)
            return replies

        workers = [start_worker(SRC), start_worker(CONTROL)]
        try:
            # The first pair warms both workers up and is not timed.  The
            # program worker is then a fresh process that has run the
            # workload once, which is when its peak RSS is read.
            rss_mb = pair()[0]["peak_kb"] / 1024.0
            timed_loop(seconds, lambda: pairs.append(pair()))
        finally:
            stop_workers(workers)
        if gates[1].failures:
            raise RuntimeError(f"the control failed the gate: {gates[1].failures}")
        scaled = [p["cpu_s"] / c["cpu_s"] * CONTROL_PROTOCOL_S[workload] for p, c in pairs]
        setup_scaled = [p / c * CONTROL_SETUP_S for p, c in setup]
        metrics["protocol_s"] = (statistics.median(scaled), "s")
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        detail["protocol_s"] = {
            "samples": scaled, "n": len(scaled), "tail": tail_percentile(scaled),
            **{f"{side}_{kind}": [p[i][kind] for p in pairs]
               for i, side in enumerate(("program", "control")) for kind in ("cpu_s", "wall_s")},
        }
        detail["setup_s"] = {"samples": setup_scaled, "n": len(setup_scaled),
                             "program_cpu_s": [p for p, _ in setup],
                             "control_cpu_s": [c for _, c in setup]}
        shutil.rmtree(outs[1], ignore_errors=True)
    else:
        from spans import LAYERS, Tracer, per_layer_metrics

        cli = load_cli()
        plain, traced, layer_rows, last = [], [], [], None
        residuals = []

        def pair():
            nonlocal last
            rc, dt = invoke(cli, inputs.argv, out)
            gate.check(rc, out)
            plain.append(dt)
            tracer = Tracer()
            tracer.install()
            try:
                rc, dt = invoke(cli, inputs.argv, out)
            finally:
                tracer.uninstall()
            gate.check(rc, out)
            traced.append(dt)
            row = per_layer_metrics(tracer.spans, threads=1)  # no workload sets ANGULAR_OPTIM_THREADS
            layers = sum(row[f"{layer}.self_s"][0] for layer in LAYERS)
            residuals.append(layers - row["trace.protocol_s"][0])
            layer_rows.append(row)
            last = tracer

        timed_loop(seconds, pair)
        for name, (_value, unit) in layer_rows[0].items():
            metrics[name] = (statistics.median(r[name][0] for r in layer_rows), unit)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        metrics.update(import_split(max(1, setup_reps // 2)))
        last.write_csv(workdir / "spans.csv")
        detail["trace"] = {"untraced_s": plain, "traced_s": traced,
                           "accounting_residual_s": residuals,
                           "skipped": last.skipped,
                           "spans_file": str((workdir / "spans.csv").relative_to(ROOT))}
        if max(abs(r) for r in residuals) > 1e-4:
            gate.failures.append(f"layer self times miss traced protocol_s by {residuals}")

    shutil.rmtree(out, ignore_errors=True)
    failed = len(gate.failures)
    detail["failed_frac"] = failed / gate.attempted
    detail["failures"] = gate.failures
    return {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def report(result: dict) -> None:
    env = result["detail"]["env"]
    print(f"workload {env['workload']} seed {env['seed']} gate: {env['gate']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    d = result["detail"]
    if "protocol_s" in d:
        tail = d["protocol_s"]["tail"]
        tail_text = (f"p{tail['percentile']} {tail['value']:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"  protocol_s: median of {d['protocol_s']['n']} samples; {tail_text}")
        med = {k: statistics.median(v) for k, v in d["protocol_s"].items() if k.endswith("_s")}
        print(f"  protocol raw medians: program {med['program_cpu_s']:.4f} s CPU, "
              f"{med['program_wall_s']:.4f} s wall; control {med['control_cpu_s']:.4f} s CPU, "
              f"{med['control_wall_s']:.4f} s wall (both on one CPU)")
    print(f"  failed_frac {d['failed_frac']:.4g} ({result['failed']} of {result['attempted']})")
    for problem in d["failures"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"env": env}))


def contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


# ---------------------------------------------------------------------------
# Modes


def smoke() -> int:
    """Every named metric is emitted with its unit; a tampered artifact fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, seed in ((0, DEFAULT_SEED), (1, 1)):
            result = run_workload(workload, seed, 0, trace, setup_reps=2)
            report(result)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics {got} != {wanted[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['detail']['failures']}")

    # Tamper check: a clean invocation passes, a flipped byte and a missing
    # file each count as failed.
    cli = load_cli()
    workdir, inputs = prepare("rosenbrock", DEFAULT_SEED)
    out = workdir / "tamper"
    rc, _ = invoke(cli, inputs.argv, out)
    gate = Gate(inputs.files, pinned_digests("rosenbrock", DEFAULT_SEED)[0])
    clean = gate.check(rc, out)
    grid = out / "rosenbrock_grid.csv"
    data = bytearray(grid.read_bytes())
    data[-2] ^= 1
    grid.write_bytes(bytes(data))
    flipped = gate.check(rc, out)
    grid.unlink()
    missing = gate.check(rc, out)
    shutil.rmtree(out, ignore_errors=True)
    print(f"tamper check: clean {clean}, flipped byte {flipped}, missing file {missing}; "
          f"failures {gate.failures}")
    if not clean or flipped or missing:
        problems.append("tamper check: gate did not flag the tampered artifacts")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def pin() -> int:
    """Record the seed-0 artifact digests of every workload for this environment."""
    cli = load_cli()
    pins = {"env": pin_key(), "workloads": {}}
    for workload in WORKLOADS:
        workdir, inputs = prepare(workload, DEFAULT_SEED)
        gate = Gate(inputs.files, None)
        rc, _ = invoke(cli, inputs.argv, workdir / "out")
        if not gate.check(rc, workdir / "out"):
            print(f"cannot pin {workload}: {gate.failures}", file=sys.stderr)
            return 1
        pins["workloads"][workload] = gate.reference
        shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(v) for v in pins['workloads'].values())} artifacts to {PINS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check of the benchmark")
    parser.add_argument("--pin", action="store_true", help="re-pin seed-0 artifact digests")
    args = parser.parse_args(argv)

    if not (SRC / "angular_optim" / "cli.py").is_file():
        print(f"error: no angular_optim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.smoke:
        return smoke()
    if args.pin:
        return pin()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, args.trace)
        report(result)
        (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        print(contract_line(result))
        return 0
    runs = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, seconds, trace)
            report(result)
            runs.append({"workload": workload, "trace": trace, **result})
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
