"""Gradient-based optimizers with an angular step coefficient, plus benchmarks.

The package implements nine update rules (SGD, SGDM, RMSprop, Adam, AdamW,
RAdam, diffGrad, AdaBelief, and the cos/tan variants of AngularGrad) behind
one stepping contract, a set of analytic test objectives, a small MLP with
manual reverse-mode gradients, and a deterministic experiment harness with a
CLI front end that emits CSV/JSON/SVG artifacts.
"""

from angular_optim.optimizers import (
    OptimizerConfig,
    OptimizerState,
    NonFiniteStepError,
    init_state,
    step,
)
from angular_optim.objectives import get_objective

__version__ = "0.1.0"

__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "NonFiniteStepError",
    "init_state",
    "step",
    "get_objective",
    "__version__",
]
