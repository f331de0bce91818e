"""Benchmark objectives and the noisy evaluation wrapper.

Benchmarks declare their integer variables first, and the raw functions read
coordinates by declared position, so an integer block placed elsewhere in a
custom space is handled by the declaration-order mapping in SearchSpace.
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from .errors import DimensionTooSmallError, InvalidSettingError, UnknownBenchmarkError
from .space import MixedPoint, SearchSpace, VariableSpec, _is_real

__all__ = [
    "ackley",
    "rosenbrock",
    "NoisyObjective",
    "make_objective",
    "make_benchmark",
    "OBJECTIVES",
    "BENCHMARKS",
]

RandomStream = np.random.Generator

DEFAULT_NOISE_HIGH = 1e-6


def ackley(x, a: float = 20.0, b: float = 0.2, c: float = 2.0 * np.pi) -> float:
    """Ackley function; 0 at the origin, roughly ``a`` far from it."""
    x = np.asarray(x, dtype=float)
    d = x.size
    if d == 0:
        raise DimensionTooSmallError("ackley needs at least one coordinate")
    return float(
        -a * np.exp(-b * np.sqrt(np.mean(x * x)))
        - np.exp(np.mean(np.cos(c * x)))
        + a
        + np.e
    )


def rosenbrock(x, scale: float = 1.0) -> float:
    """Scaled Rosenbrock function; 0 at the all-ones point."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DimensionTooSmallError(f"rosenbrock needs >= 2 coordinates, got {x.size}")
    return float(scale * np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2))


class NoisyObjective:
    """Callable on MixedPoints: base value plus Uniform[0, noise_high) noise.

    ``noise_high = 0`` disables the noise. Evaluations are counted.
    """

    def __init__(
        self,
        base: Callable[[MixedPoint], float],
        rng: RandomStream | None = None,
        noise_high: float = DEFAULT_NOISE_HIGH,
    ):
        # an int is compared with a float exactly, so one beyond the float range fails
        if not (_is_real(noise_high) and 0 <= noise_high <= sys.float_info.max):
            raise InvalidSettingError(
                "noise_high", f"must be a finite number >= 0, got {noise_high!r}"
            )
        self._base = base
        self._rng = rng if rng is not None else np.random.default_rng()
        self.noise_high = float(noise_high)
        self.evaluations = 0

    def __call__(self, point: MixedPoint) -> float:
        self.evaluations += 1
        value = float(self._base(point))
        if self.noise_high > 0.0:
            value += self._rng.uniform(0.0, self.noise_high)
        return value


def _benchmark_space(n_integer, int_lo, int_up, n_continuous, cont_lo, cont_up):
    return SearchSpace(
        tuple(VariableSpec("integer", int_lo, int_up) for _ in range(n_integer))
        + tuple(VariableSpec("continuous", cont_lo, cont_up) for _ in range(n_continuous))
    )


OBJECTIVES = {"ackley": ackley, "rosenbrock": rosenbrock}

# name -> (_benchmark_space arguments, objective name, scale)
BENCHMARKS = {
    "ackley53": ((50, 0, 1, 3, -1.0, 1.0), "ackley", 1.0),
    "rosenbrock10": ((3, -2, 2, 7, -2.0, 2.0), "rosenbrock", 1.0 / 300.0),
    "rosenbrock238": ((119, -2, 2, 119, -2.0, 2.0), "rosenbrock", 1.0 / 50_000.0),
}


def make_objective(
    space: SearchSpace,
    name: str,
    scale: float,
    rng: RandomStream | None,
    noise_high: float,
) -> NoisyObjective:
    """Noise-wrapped ``scale * OBJECTIVES[name]`` of the coordinates in declaration order."""
    if name not in OBJECTIVES:
        known = sorted(OBJECTIVES)
        raise InvalidSettingError("name", f"{name!r} is an unknown objective; available: {known}")
    if not (_is_real(scale) and 0 < scale <= sys.float_info.max):
        raise InvalidSettingError("scale", f"must be a finite, positive number, got {scale!r}")
    raw = OBJECTIVES[name]
    return NoisyObjective(
        lambda p: scale * raw(space.declared_values(p)), rng=rng, noise_high=noise_high
    )


def make_benchmark(
    name: str,
    rng: RandomStream | None = None,
    noise_high: float = DEFAULT_NOISE_HIGH,
) -> tuple[SearchSpace, NoisyObjective]:
    """Named benchmark: its search space and noise-wrapped objective."""
    try:
        space_args, objective, scale = BENCHMARKS[name]
    except KeyError:
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        ) from None
    space = _benchmark_space(*space_args)
    return space, make_objective(space, objective, scale, rng, noise_high)
