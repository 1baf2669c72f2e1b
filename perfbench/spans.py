"""In-memory span tracer for the angular-optim benchmark's traced run.

The tracer wraps public functions of the package from the outside: it never
edits the package's source.  A wrapper is installed at every place the
original function object can be looked up (each ``angular_optim`` module
global bound to it, the optimizer rule table, and the ``Objective`` methods),
so calls made through a name imported with ``from x import y`` are traced
too.  Each call records one span (id, name, parent, thread, start, end); the
spans stay in memory and are written out after the run.

Self time is computed by a sweep over span boundaries: at each instant the
wall time is shared equally among the open spans that have no open child
(the leaves).  On one thread this is the usual "duration minus the interval
its children cover"; with a thread pool it splits concurrent time between the
threads, so the self times of all spans add up to the root span's wall time.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# (span name, layer, module, attribute).  "Objective.eval" style attributes
# name a method on a class of that module.  A name the package no longer has
# is skipped, and the metrics that need it read 0.
TRACED = (
    ("cli.main", "cli", "angular_optim.cli", "main"),
    ("objectives.eval", "objectives", "angular_optim.objectives", "Objective.eval"),
    ("objectives.grad", "objectives", "angular_optim.objectives", "Objective.grad"),
    ("objectives.get_objective", "objectives", "angular_optim.objectives", "get_objective"),
    ("optimizers.step", "optimizers", "angular_optim.optimizers", "step"),
    ("optimizers.init_state", "optimizers", "angular_optim.optimizers", "init_state"),
    ("harness.run_experiment", "harness", "angular_optim.harness", "run_experiment"),
    ("harness.single_run", "harness", "angular_optim.harness", "single_run"),
    ("harness.grid_eval", "harness", "angular_optim.harness", "grid_eval"),
    ("harness.aggregate", "harness", "angular_optim.harness", "aggregate"),
    ("harness.compute_regret", "harness", "angular_optim.harness", "compute_regret"),
    ("serialize.trajectory_to_csv", "serialize", "angular_optim.harness", "trajectory_to_csv"),
    ("serialize.regret_to_csv", "serialize", "angular_optim.harness", "regret_to_csv"),
    ("serialize.grid_to_csv", "serialize", "angular_optim.harness", "grid_to_csv"),
    ("serialize.summary_to_json", "serialize", "angular_optim.harness", "summary_to_json"),
    ("serialize.render_line_chart", "serialize", "angular_optim.svgplot", "render_line_chart"),
    ("serialize.render_overlay", "serialize", "angular_optim.svgplot", "render_overlay"),
    ("harness.write_text_atomic", "serialize", "angular_optim.harness", "write_text_atomic"),
    ("models.train_mlp", "models", "angular_optim.models", "train_mlp"),
    ("models.loss_and_grad", "models", "angular_optim.models", "loss_and_grad"),
    ("models.make_blobs", "models", "angular_optim.models", "make_blobs"),
)
# Rule kernels are looked up through this table inside ``step``.
RULE_TABLE = ("angular_optim.optimizers", "_RULE_TABLE")

LAYERS = ("cli", "objectives", "optimizers", "harness", "models", "serialize")
# Rules that some workload runs; each gets optimizers.step.<rule>.us_per_call.
RULES = ("sgd", "rmsprop", "adam", "adamw", "diffgrad", "adabelief", "angulargrad")
SERIALIZERS = (
    "serialize.trajectory_to_csv",
    "serialize.regret_to_csv",
    "serialize.grid_to_csv",
    "serialize.summary_to_json",
    "serialize.render_line_chart",
    "serialize.render_overlay",
)


_LAYER_OF = {name: layer for name, layer, _mod, _attr in TRACED}


def _layer_of(name: str) -> str:
    return "optimizers" if name.startswith("optimizers.rule.") else _LAYER_OF[name]


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._root_thread = threading.get_ident()
        self._undo: list[tuple] = []
        self.skipped: list[str] = []

    def _wrap(self, name, fn):
        spans, ids, stacks = self.spans, self._ids, self._stacks
        root_thread = self._root_thread
        get_ident = threading.get_ident
        sizes = name in SERIALIZERS

        def wrapper(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool worker: its parent is the span the root thread is in
                root = stacks.get(root_thread)
                parent = root[-1] if root else -1
            sid = next(ids)
            stack.append(sid)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                size = len(result) if sizes and result is not None else 0
                spans.append((sid, name, parent, tid, start, end, size))

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, orig, wrapped):
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("angular_optim") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
                    self._undo.append((module, key, orig))

    def install(self):
        for name, _layer, modname, attr in TRACED:
            module = sys.modules.get(modname)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, method, None) if owner is not None else None
            if orig is None:
                self.skipped.append(name)
                continue
            wrapped = self._wrap(name, orig)
            if owner_name:
                setattr(owner, method, wrapped)
                self._undo.append((owner, method, orig))
            else:
                self._replace_everywhere(orig, wrapped)
        table = getattr(sys.modules.get(RULE_TABLE[0]), RULE_TABLE[1], None)
        if isinstance(table, dict):
            for rule, fn in list(table.items()):
                table[rule] = self._wrap(f"optimizers.rule.{rule}", fn)
                self._undo.append((table, rule, fn))
        else:
            self.skipped.append("optimizers.rule.*")

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,parent,thread,start_ns,end_ns,bytes\n")
            for span in sorted(self.spans):
                fh.write(",".join(str(v) for v in span) + "\n")


def self_times(spans) -> dict[int, float]:
    """Self time in ns per span id, by the leaf-sharing sweep described above."""
    parent = {s[0]: s[2] for s in spans}
    events = []
    for sid, _name, _parent, _tid, start, end, _bytes in spans:
        events.append((start, 0, sid))
        events.append((end, 1, sid))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    self_ns: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0
    for t, kind, sid in events:
        if t > last and leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_ns[leaf] += share
        last = t
        p = parent[sid]
        if kind == 0:
            is_open.add(sid)
            if open_children[sid] == 0:
                leaves.add(sid)
            if p in parent:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p in parent:
                open_children[p] -= 1
                if open_children[p] == 0 and p in is_open:
                    leaves.add(p)
    return self_ns


def per_layer_metrics(spans, threads: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced protocol invocation."""
    self_ns = self_times(spans)
    by_name = {s[0]: s[1] for s in spans}
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    steps_in_single_run = 0
    nbytes = 0
    for sid, name, parent, _tid, start, end, size in spans:
        calls[name] += 1
        incl[name] += end - start
        selfs[name] += self_ns[sid]
        layer_self[_layer_of(name)] += self_ns[sid]
        nbytes += size
        if name == "optimizers.step" and by_name.get(parent) == "harness.single_run":
            steps_in_single_run += 1

    def us_per_call(name):
        return incl[name] / calls[name] / 1e3 if calls[name] else 0.0

    root = [s for s in spans if s[1] == "cli.main"]
    m: dict[str, tuple[float, str]] = {}
    for name in ("objectives.eval", "objectives.grad"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    m["optimizers.step.calls"] = (calls["optimizers.step"], "count")
    m["optimizers.step.us_per_call"] = (us_per_call("optimizers.step"), "us")
    m["optimizers.step.self_us_per_call"] = (
        selfs["optimizers.step"] / calls["optimizers.step"] / 1e3
        if calls["optimizers.step"] else 0.0,
        "us",
    )
    for rule in RULES:
        m[f"optimizers.step.{rule}.us_per_call"] = (
            us_per_call(f"optimizers.rule.{rule}"), "us"
        )
    m["harness.single_run.self_us_per_step"] = (
        selfs["harness.single_run"] / steps_in_single_run / 1e3
        if steps_in_single_run else 0.0,
        "us",
    )
    run_s = incl["harness.run_experiment"] / 1e9
    m["harness.run_experiment.s"] = (run_s, "s")
    m["harness.run_experiment.parallel_eff"] = (
        incl["harness.single_run"] / 1e9 / (threads * run_s) if run_s else 0.0,
        "ratio",
    )
    m["harness.grid_eval.s"] = (incl["harness.grid_eval"] / 1e9, "s")
    m["serialize.s"] = (sum(incl[n] for n in SERIALIZERS) / 1e9, "s")
    m["serialize.bytes"] = (nbytes, "bytes")
    m["harness.write_text_atomic.calls"] = (calls["harness.write_text_atomic"], "count")
    m["harness.write_text_atomic.s"] = (incl["harness.write_text_atomic"] / 1e9, "s")
    m["models.loss_and_grad.calls"] = (calls["models.loss_and_grad"], "count")
    m["models.loss_and_grad.us_per_call"] = (us_per_call("models.loss_and_grad"), "us")
    m["models.train_mlp.self_s"] = (selfs["models.train_mlp"] / 1e9, "s")
    m["models.make_blobs.s"] = (incl["models.make_blobs"] / 1e9, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
    m["trace.protocol_s"] = (sum(s[5] - s[4] for s in root) / 1e9, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
