"""Randomized exploration around the surrogate minimizer.

Integer coordinates take geometric-tailed unit steps: with p = 1/dim a
coordinate moves at least once with probability p, twice with p/2, and so on
(the driving uniform draw is doubled after each step). Direction is drawn
once per coordinate and only reverses at a bound. Continuous coordinates get
Gaussian noise scaled to the variable's range and are clipped back into it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSettingError
from .space import SearchSpace

__all__ = ["perturb_integer", "perturb_continuous"]

RandomStream = np.random.Generator

# caps the doubling loop; only reachable on the measure-zero draw r1 == 0.0,
# which would otherwise never terminate
MAX_STEPS = 64


def perturb_integer(space: SearchSpace, xd: np.ndarray, rng: RandomStream) -> np.ndarray:
    """Step each integer coordinate 0+ units, staying in bounds and integral."""
    xd = np.asarray(xd, dtype=float)
    if np.any(xd != np.floor(xd)):
        raise InvalidSettingError("xd", f"integer block is not integral: {xd!r}")
    out = xd.copy()
    p = 1.0 / space.dim
    lower, upper = space.integer_lower, space.integer_upper
    # one (r1, r2) pair per coordinate, the same doubles in the same order as
    # two scalar draws each; a pinned variable (lower == upper) has nowhere to
    # go but still takes its pair, so the stream layout is identical either way
    draws = rng.random((space.n_integer, 2))
    for i in np.flatnonzero(draws[:, 0] < p).tolist():
        r1, r2 = draws[i].tolist()
        steps = 0
        while r1 < p and lower[i] < upper[i] and steps < MAX_STEPS:
            if out[i] == lower[i]:
                out[i] += 1
            elif out[i] == upper[i]:
                out[i] -= 1
            elif r2 < 0.5:
                out[i] += 1
            else:
                out[i] -= 1
            r1 *= 2.0
            steps += 1
    return out


def perturb_continuous(space: SearchSpace, xc: np.ndarray, rng: RandomStream) -> np.ndarray:
    """Add N(0, sigma_i^2) per coordinate, sigma_i = 0.1 range_i / sqrt(dim), then clip."""
    xc = np.asarray(xc, dtype=float)
    lower, upper = space.continuous_lower, space.continuous_upper
    sigma = 0.1 * (upper - lower) / np.sqrt(space.dim)
    return np.clip(xc + rng.normal(0.0, sigma), lower, upper)
