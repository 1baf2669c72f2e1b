"""Built-in benchmark protocols, kept as plain JSON-shaped data.

Every constant a run depends on lives here (or in a user config file that
overrides these dicts), never inline in harness code.  The three groups:

* toy: the 1-D functions f1/f2/f3, 300 iterations from theta0 = -1 with
  alpha = 0.1 and beta1 = gamma = 0.95, the six-optimizer comparison set.
* benchmark rates: named optimizer configs at the conventional defaults
  (alpha = 1e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8, weight decay 0;
  RMSprop smoothing 0.99; SGDM lr 0.01 with gamma 0.9), used by the
  Rosenbrock and MLP protocols.
* regret: convex quadratic, dim 10, uniform start in [-1, 1]^10, alpha 0.1.
"""

from __future__ import annotations

import copy

_TOY_COMMON = {"alpha": 0.1, "beta1": 0.95, "beta2": 0.999, "epsilon": 1e-8}

DEFAULT_TOY = {
    "tasks": ["f1", "f2", "f3"],
    "iterations": 300,
    "seeds": [0],
    "theta0": [-1.0],
    "lr_milestones": [],
    "optimizers": {
        "sgdm": {"rule": "sgdm", "alpha": 0.1, "momentum_gamma": 0.95},
        "adam": {"rule": "adam", **_TOY_COMMON},
        "diffgrad": {"rule": "diffgrad", **_TOY_COMMON},
        "adabelief": {"rule": "adabelief", **_TOY_COMMON},
        "angulargrad_cos": {"rule": "angulargrad", "angle_variant": "cos", **_TOY_COMMON},
        "angulargrad_tan": {"rule": "angulargrad", "angle_variant": "tan", **_TOY_COMMON},
    },
}

_ADAPTIVE = {"alpha": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}

DEFAULT_ROSENBROCK = {
    "iterations": 5000,
    "seeds": [0],
    "theta0": [-2.0, 2.0],
    "lr_milestones": [],
    "optimizers": {
        "sgd": {"rule": "sgd", "alpha": 1e-3},
        "rmsprop": {"rule": "rmsprop", "alpha": 1e-3, "beta2": 0.99, "epsilon": 1e-8},
        "adam": {"rule": "adam", **_ADAPTIVE},
        "adamw": {"rule": "adamw", **_ADAPTIVE},
        "diffgrad": {"rule": "diffgrad", **_ADAPTIVE},
        "adabelief": {"rule": "adabelief", **_ADAPTIVE},
        "angulargrad_cos": {"rule": "angulargrad", "angle_variant": "cos", **_ADAPTIVE},
        "angulargrad_tan": {"rule": "angulargrad", "angle_variant": "tan", **_ADAPTIVE},
    },
    "grid": {"x_range": [-2.6, 2.1], "y_range": [-1.2, 3.2], "resolution": 101},
}

DEFAULT_MLP = {
    "blobs": {"classes": 3, "n_per_class": 300, "separation": 4.0},
    "layer_sizes": [2, 16, 3],
    "activation": "tanh",
    "loss": "softmax_cross_entropy",
    "epochs": 50,
    "batch_size": 32,
    "seeds": [0, 1, 2, 3, 4],
    "optimizers": {
        "adam": {"rule": "adam", **_ADAPTIVE},
        "adamw": {"rule": "adamw", **_ADAPTIVE},
        "diffgrad": {"rule": "diffgrad", **_ADAPTIVE},
        "adabelief": {"rule": "adabelief", **_ADAPTIVE},
        "angulargrad_cos": {"rule": "angulargrad", "angle_variant": "cos", **_ADAPTIVE},
        "angulargrad_tan": {"rule": "angulargrad", "angle_variant": "tan", **_ADAPTIVE},
    },
}

DEFAULT_REGRET = {
    "task": "quadratic",
    "dim": 10,
    "iterations": 4000,
    "seeds": [0],
    "theta0": {"rule": "uniform", "low": -1.0, "high": 1.0},
    "lr_milestones": [],
    "optimizers": {
        "adam": {"rule": "adam", "alpha": 0.1, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8},
        "angulargrad_cos": {"rule": "angulargrad", "angle_variant": "cos", "alpha": 0.1},
        "angulargrad_tan": {"rule": "angulargrad", "angle_variant": "tan", "alpha": 0.1},
    },
}

def default_config(command: str) -> dict:
    table = {
        "toy": DEFAULT_TOY,
        "rosenbrock": DEFAULT_ROSENBROCK,
        "mlp": DEFAULT_MLP,
        "regret": DEFAULT_REGRET,
    }
    if command not in table:
        raise KeyError(f"no default config for {command!r}")
    return copy.deepcopy(table[command])
