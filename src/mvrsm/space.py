"""Mixed continuous/integer search spaces.

A space is an ordered list of bounded variables, each continuous or integer.
Points are stored in two blocks (continuous first, then integer, each in
declaration order); both blocks hold plain floats, and integrality of the
integer block is a predicate rather than a storage type so that relaxed
values appearing inside the inner minimizer are representable.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import DimensionMismatchError, InvalidSettingError, VariableError

__all__ = ["VariableSpec", "MixedPoint", "SearchSpace", "round_half_away"]

RandomStream = np.random.Generator


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer, ties away from zero (1.5 -> 2, -1.5 -> -2)."""
    x = np.asarray(x, dtype=float)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _is_real(value) -> bool:
    """A real number; bools (JSON's true/false) and numpy's bool_ do not count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class VariableSpec:
    """One bounded variable. Integer variables must have integral bounds."""

    kind: Literal["continuous", "integer"]
    lower: float
    upper: float


@dataclass(frozen=True, eq=False)
class MixedPoint:
    """A point split into its continuous and integer blocks."""

    xc: np.ndarray
    xd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xc", np.asarray(self.xc, dtype=float))
        object.__setattr__(self, "xd", np.asarray(self.xd, dtype=float))

    def flatten(self) -> np.ndarray:
        """Concatenated coordinate vector [continuous block; integer block]."""
        return np.concatenate([self.xc, self.xd])


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Ordered mixed domain; requires at least one integer variable."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) == 0:
            raise InvalidSettingError("variables", "a search space needs at least one variable")
        n_integer = 0
        for i, v in enumerate(self.variables):
            if v.kind not in ("continuous", "integer"):
                raise VariableError(i, f"unknown kind {v.kind!r}")
            for name, bound in (("lower", v.lower), ("upper", v.upper)):
                if not _is_real(bound):
                    raise VariableError(i, f"bounds must be finite numbers, not {bound!r}")
                # an int is compared with a float exactly, so one beyond the float range fails
                if not -sys.float_info.max <= bound <= sys.float_info.max:
                    if isinstance(bound, numbers.Integral):
                        bound = f"(an int of {len(str(abs(bound)))} digits)"
                    raise VariableError(
                        i, f"bounds must be finite numbers; {name} bound {bound} is not finite"
                    )
            if v.lower > v.upper:
                raise VariableError(i, f"lower {v.lower!r} > upper {v.upper!r}")
            if v.kind == "integer":
                n_integer += 1
                for bound in (v.lower, v.upper):
                    # points hold integers as floats, and beyond 2**53 not
                    # every integer is a float
                    if abs(bound) > 2**53:
                        raise VariableError(
                            i, f"integer bound {bound!r} is beyond 2**53 in magnitude"
                        )
                    if float(bound) != int(bound):
                        raise VariableError(i, f"integer bound {bound!r} is not integral")
        if n_integer == 0:
            raise InvalidSettingError(
                "variables", "the surrogate's integer basis needs at least one integer variable"
            )

    # -- derived layout ---------------------------------------------------

    @cached_property
    def continuous_positions(self) -> np.ndarray:
        """Declaration indices of the continuous variables."""
        return np.array(
            [i for i, v in enumerate(self.variables) if v.kind == "continuous"], dtype=int
        )

    @cached_property
    def integer_positions(self) -> np.ndarray:
        """Declaration indices of the integer variables."""
        return np.array(
            [i for i, v in enumerate(self.variables) if v.kind == "integer"], dtype=int
        )

    @property
    def n_continuous(self) -> int:
        return len(self.continuous_positions)

    @property
    def n_integer(self) -> int:
        return len(self.integer_positions)

    @property
    def dim(self) -> int:
        return len(self.variables)

    @cached_property
    def continuous_lower(self) -> np.ndarray:
        return np.array([self.variables[i].lower for i in self.continuous_positions], float)

    @cached_property
    def continuous_upper(self) -> np.ndarray:
        return np.array([self.variables[i].upper for i in self.continuous_positions], float)

    @cached_property
    def integer_lower(self) -> np.ndarray:
        return np.array([self.variables[i].lower for i in self.integer_positions], float)

    @cached_property
    def integer_upper(self) -> np.ndarray:
        return np.array([self.variables[i].upper for i in self.integer_positions], float)

    @cached_property
    def lower(self) -> np.ndarray:
        """Lower bounds in block layout [continuous; integer]."""
        return np.concatenate([self.continuous_lower, self.integer_lower])

    @cached_property
    def upper(self) -> np.ndarray:
        """Upper bounds in block layout [continuous; integer]."""
        return np.concatenate([self.continuous_upper, self.integer_upper])

    # -- point operations --------------------------------------------------

    def _check_point(self, p: MixedPoint) -> None:
        if p.xc.shape != (self.n_continuous,) or p.xd.shape != (self.n_integer,):
            raise DimensionMismatchError(
                f"point blocks {p.xc.shape}/{p.xd.shape} do not match space "
                f"({self.n_continuous} continuous, {self.n_integer} integer)"
            )

    def contains(self, p: MixedPoint) -> bool:
        self._check_point(p)
        return bool(
            np.all(p.xc >= self.continuous_lower)
            and np.all(p.xc <= self.continuous_upper)
            and np.all(p.xd >= self.integer_lower)
            and np.all(p.xd <= self.integer_upper)
        )

    def is_integral(self, p: MixedPoint) -> bool:
        """True when every integer-block coordinate is an exact integer."""
        self._check_point(p)
        return bool(np.all(p.xd == np.floor(p.xd)))

    def project(self, p: MixedPoint) -> MixedPoint:
        """Clip into the box; integer coordinates also rounded half away from zero."""
        self._check_point(p)
        xc = np.clip(p.xc, self.continuous_lower, self.continuous_upper)
        xd = np.clip(round_half_away(p.xd), self.integer_lower, self.integer_upper)
        return MixedPoint(xc, xd)

    def uniform_sample(self, rng: RandomStream) -> MixedPoint:
        """Independent uniform draw: continuous on [l, u], integer uniform on {l..u}."""
        xc = rng.uniform(self.continuous_lower, self.continuous_upper)
        xd = rng.integers(
            self.integer_lower.astype(int), self.integer_upper.astype(int) + 1
        ).astype(float)
        return MixedPoint(np.atleast_1d(xc), np.atleast_1d(xd))

    def unflatten(self, vec: np.ndarray) -> MixedPoint:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector of length {vec.shape} does not match space dimension {self.dim}"
            )
        return MixedPoint(vec[: self.n_continuous].copy(), vec[self.n_continuous :].copy())

    def declared_values(self, p: MixedPoint) -> np.ndarray:
        """Coordinates in declaration order, for objectives that read positions."""
        self._check_point(p)
        out = np.empty(self.dim, dtype=float)
        out[self.continuous_positions] = p.xc
        out[self.integer_positions] = p.xd
        return out
