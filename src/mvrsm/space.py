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
    """Ordered mixed domain; requires at least one integer variable.

    The box's arrays are formed once, when the space is made, and are
    read-only (writing into one raises ``ValueError``): ``continuous_positions``
    and ``integer_positions``, the declaration indices of each block (intp),
    and the float64 bounds ``continuous_lower``/``continuous_upper``,
    ``integer_lower``/``integer_upper`` and, in block layout [continuous;
    integer], ``lower``/``upper``. Each block's bounds are views of the latter.
    """

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) == 0:
            raise InvalidSettingError("variables", "a search space needs at least one variable")
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
                for bound in (v.lower, v.upper):
                    # points hold integers as floats, and beyond 2**53 not
                    # every integer is a float
                    if abs(bound) > 2**53:
                        raise VariableError(
                            i, f"integer bound {bound!r} is beyond 2**53 in magnitude"
                        )
                    if float(bound) != int(bound):
                        raise VariableError(i, f"integer bound {bound!r} is not integral")
        is_integer = np.array([v.kind == "integer" for v in self.variables])
        if not is_integer.any():
            raise InvalidSettingError(
                "variables", "the surrogate's integer basis needs at least one integer variable"
            )
        # the box's arrays, and uniform_sample's: the continuous widths (None
        # if one overflows) and the integer bounds as ints, both inclusive
        continuous, integer = np.flatnonzero(~is_integer), np.flatnonzero(is_integer)
        order = np.concatenate([continuous, integer])
        lower = np.array([v.lower for v in self.variables], float)[order]
        upper = np.array([v.upper for v in self.variables], float)[order]
        n = len(continuous)
        with np.errstate(over="ignore"):
            width = upper[:n] - lower[:n]
        arrays = {
            "continuous_positions": continuous,
            "integer_positions": integer,
            "lower": lower,
            "upper": upper,
            "continuous_lower": lower[:n],
            "continuous_upper": upper[:n],
            "integer_lower": lower[n:],
            "integer_upper": upper[n:],
            "_continuous_width": width if np.isfinite(width).all() else None,
            "_integer_lower_int": lower[n:].astype(int),
            "_integer_upper_int": upper[n:].astype(int),
        }
        for name, array in arrays.items():
            if array is not None:
                array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_continuous(self) -> int:
        return len(self.continuous_positions)

    @property
    def n_integer(self) -> int:
        return len(self.integer_positions)

    @property
    def dim(self) -> int:
        return len(self.variables)

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
        """Independent uniform draw: continuous on [l, u], integer uniform on {l..u}.

        The continuous block has the bits of ``rng.uniform(l, u)``, which forms
        each entry as l + (u - l) * random(), one double per entry in order;
        here one ``rng.random`` call draws them all, from the widths formed
        with the space. The integer block has the bits of
        ``rng.integers(l, u + 1)``, drawn from the int bounds formed with it.
        """
        lower, width = self.continuous_lower, self._continuous_width
        if width is None:  # rng.uniform raises OverflowError for such a range
            xc = rng.uniform(lower, self.continuous_upper)
        else:
            xc = lower + width * rng.random(len(lower))
        xd = rng.integers(self._integer_lower_int, self._integer_upper_int, endpoint=True)
        return MixedPoint(xc, xd.astype(float))

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
