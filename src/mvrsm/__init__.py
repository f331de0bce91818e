"""Surrogate-based optimization of expensive noisy objectives over mixed
continuous/integer domains.

The model is a piecewise-linear sum of rectified affine units built so that
its strict local minima take exact integer values in the integer variables;
coefficients are fitted online by recursive least squares, candidate points
come from box-constrained descent on the model followed by a randomized
exploration step.
"""

from .boxmin import BoxMinResult, minimize
from .driver import (
    MvrsmOptimizer,
    OptimizerConfig,
    RandomSearch,
    RunTrace,
    TraceRecord,
    run_mvrsm,
    run_random_search,
)
from .errors import MvrsmError
from .objectives import NoisyObjective, ackley, make_benchmark, rosenbrock
from .space import MixedPoint, SearchSpace, VariableSpec
from .surrogate import ReluSurrogate, build_surrogate

__version__ = "0.1.0"

__all__ = [
    "BoxMinResult",
    "MixedPoint",
    "MvrsmError",
    "MvrsmOptimizer",
    "NoisyObjective",
    "OptimizerConfig",
    "RandomSearch",
    "ReluSurrogate",
    "RunTrace",
    "SearchSpace",
    "TraceRecord",
    "VariableSpec",
    "ackley",
    "build_surrogate",
    "make_benchmark",
    "minimize",
    "rosenbrock",
    "run_mvrsm",
    "run_random_search",
    "__version__",
]
