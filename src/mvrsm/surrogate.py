"""Piecewise-linear ReLU surrogate over a mixed search space.

The model is g(x) = sum_k c_k * max(0, w_k . x + b_k), a weighted sum of
rectified affine units, linear in the coefficients c. Unit k is row k of a
weight matrix plus one bias. Units come in three kinds, each recognisable
from its row alone:

``constant``
    w = 0, b = 1: an always-on unit so the model can shift its level.
``integer``
    w touches integer coordinates only, as +-(x_i - a) for every integer
    threshold a in the variable's range, and +-(x_i - x_{i-1} - a) for every
    adjacent pair of integer variables. Thresholds are chosen so each unit's
    kink can sit inside the box. Continuous weights are exactly zero.
``mixed``
    w is drawn from a small shared set of random directions (one per
    continuous variable) and b is sampled so the unit's kink hyperplane
    crosses the box.

This construction gives the model its defining property: a strict local
minimum is pinned by a full-rank set of kinks, of which at most n_continuous
can be mixed (their weights live in the span of the shared directions), so at
least n_integer are integer units; the integer units' simultaneous zeros form
a difference system whose solutions are integral. Strict local minima of the
surrogate therefore have exact integer values in the integer block, and
``enumerate_vertices`` makes the claim checkable on small models.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDirectionSetError,
    TooLargeError,
)
from .rls import RecursiveLeastSquares
from .space import MixedPoint, SearchSpace

__all__ = [
    "ReluSurrogate",
    "Vertex",
    "integer_units",
    "sample_directions",
    "corner_points",
    "mixed_units",
    "build_surrogate",
    "enumerate_vertices",
]

RandomStream = np.random.Generator

REGULARISER = 1e-8  # ridge strength for the coefficient fit

# Points whose pre-activations a model keeps: box descent alternates between
# its iterate and one line-search trial, and an accepted trial becomes the
# next iterate.
_MEMO_POINTS = 2


@dataclass
class ReluSurrogate:
    """The fitted model: unit rows are frozen after construction, coefficients are not.

    Row k of ``weights`` (block layout [continuous; integer]) and ``biases[k]``
    define unit k. The model owns its unit rows: both arrays are made
    read-only, without a copy, when they are set. The pre-activations
    z = weights @ x + biases do not depend on the coefficients, so they are
    computed once per point and kept for the two most recently used points
    (the descent's iterate and its line-search trial); assigning new
    ``weights`` or ``biases`` forgets them. ``coeffs`` is shared with the
    attached least squares state (when one is attached), so updates through
    either view are seen by both.
    """

    weights: np.ndarray
    biases: np.ndarray
    coeffs: np.ndarray
    rls: RecursiveLeastSquares | None = None

    def __setattr__(self, name, value):
        if name in ("weights", "biases"):
            value = np.asanyarray(value, dtype=float)
            value.flags.writeable = False
            # keyed on coordinate bytes, oldest first
            object.__setattr__(self, "_z_memo", {})
        object.__setattr__(self, name, value)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        m = len(self.biases)
        if self.weights.ndim != 2 or len(self.weights) != m or len(self.coeffs) != m:
            raise DimensionMismatchError(
                f"weights of shape {self.weights.shape}, {m} biases and "
                f"{len(self.coeffs)} coefficients"
            )

    @property
    def n_units(self) -> int:
        return len(self.coeffs)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def _coords(self, x) -> np.ndarray:
        if isinstance(x, MixedPoint):
            x = x.flatten()
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(f"point of shape {x.shape}, model dim {self.dim}")
        return x

    def _preactivation(self, x) -> np.ndarray:
        """Read-only z = weights @ x + biases, remembered for the last two points used."""
        x = self._coords(x)
        memo = self._z_memo
        key = x.tobytes()
        z = memo.pop(key, None)
        if z is None:
            z = self.weights @ x + self.biases
            z.flags.writeable = False
            if len(memo) == _MEMO_POINTS:
                del memo[next(iter(memo))]
        memo[key] = z
        return z

    def features(self, x) -> np.ndarray:
        """Unit activations phi_k(x) = max(0, w_k . x + b_k)."""
        return np.maximum(self._preactivation(x), 0.0)

    def value(self, x) -> float:
        return float(self.coeffs @ self.features(x))

    def gradient(self, x) -> np.ndarray:
        """Subgradient sum_k c_k s(z_k) w_k with s = 1 above the kink, 0 below, 1/2 at it."""
        z = self._preactivation(x)
        slope = np.where(z > 0.0, 1.0, np.where(z < 0.0, 0.0, 0.5))
        return self.weights.T @ (self.coeffs * slope)

    def directional_derivative(self, x, direction: np.ndarray) -> float:
        """Exact one-sided derivative of the model at ``x`` along ``direction``.

        Unlike ``gradient``, which averages the two slopes of a unit sitting
        exactly at its kink, this resolves each such unit by the side the
        direction moves into: lim_{t -> 0+} (g(x + t d) - g(x)) / t. Away from
        kinks the two agree. At integer points many integer units sit at their
        kink at once, where the averaged gradient can predict descent along a
        direction that is actually uphill; line searches should trust this
        value instead.
        """
        z = self._preactivation(x)
        direction = np.asarray(direction, dtype=float)
        if direction.shape != (self.dim,):
            raise DimensionMismatchError(
                f"direction of shape {direction.shape}, model dim {self.dim}"
            )
        rate = self.weights @ direction
        slope = np.where(z > 0.0, rate, 0.0)
        at_kink = z == 0.0
        slope[at_kink] = np.maximum(rate[at_kink], 0.0)
        return float(self.coeffs @ slope)

    def axis_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """One-sided derivatives along +e_i and -e_i for every coordinate.

        Equivalent to calling ``directional_derivative`` with each signed unit
        vector, but in a handful of matrix products. Used by the descent loop
        to find a usable coordinate move when quasi-Newton directions fail at
        a kink point.
        """
        z = self._preactivation(x)
        active = self.coeffs * (z > 0.0)
        base = self.weights.T @ active
        kink = z == 0.0
        w_kink = self.weights[kink]
        c_kink = self.coeffs[kink]
        up = np.maximum(w_kink, 0.0).T @ c_kink
        down = np.maximum(-w_kink, 0.0).T @ c_kink
        return base + up, -base + down

    # -- snapshots ----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize unit rows and coefficients (fit covariance is not included)."""
        payload = {
            "weights": self.weights.tolist(),
            "biases": self.biases.tolist(),
            "coeffs": self.coeffs.tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ReluSurrogate":
        payload = json.loads(text)
        return cls(payload["weights"], payload["biases"], payload["coeffs"])


# -- basis construction ------------------------------------------------------


def integer_units(space: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic block as (weights, biases): one constant unit, then
    every integer unit.

    Ordering is fixed: constant; single-variable units by variable, then
    threshold, then sign (+ before -); adjacent-pair units likewise.
    """
    nc, nd = space.n_continuous, space.n_integer
    lo = space.integer_lower.astype(int)
    up = space.integer_upper.astype(int)
    # one (variable, previous variable or -1, threshold) triple per +/- pair
    triples = [(i, -1, a) for i in range(nd) for a in range(lo[i], up[i] + 1)]
    triples += [
        (i, i - 1, a)
        for i in range(1, nd)
        for a in range(lo[i] - up[i - 1], up[i] - lo[i - 1] + 1)
    ]
    var, prev, thresh = np.repeat(np.array(triples, dtype=int).reshape(-1, 3), 2, axis=0).T
    sign = np.tile([1.0, -1.0], len(triples))

    weights = np.zeros((1 + len(sign), space.dim))
    rows = np.arange(1, len(weights))
    weights[rows, nc + var] = sign
    paired = prev >= 0
    weights[rows[paired], nc + prev[paired]] = -sign[paired]
    biases = np.concatenate([[1.0], -sign * thresh])
    return weights, biases


def sample_directions(space: SearchSpace, rng: RandomStream) -> np.ndarray:
    """n_continuous random directions, components uniform on [-1/dim, 1/dim].

    Mixed units draw their weight vectors from this set (with replacement), so
    at most n_continuous linearly independent mixed kinks can meet at a point.
    """
    bound = 1.0 / space.dim
    return rng.uniform(-bound, bound, size=(space.n_continuous, space.dim))


def corner_points(space: SearchSpace, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box corners minimizing and maximizing the linear form weights . x.

    Zero weight components follow the >= 0 branch (lower bound in the
    minimizing corner), which keeps the choice deterministic.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (space.dim,):
        raise DimensionMismatchError(f"weights of shape {weights.shape}, space dim {space.dim}")
    nonneg = weights >= 0.0
    min_corner = np.where(nonneg, space.lower, space.upper)
    max_corner = np.where(nonneg, space.upper, space.lower)
    return min_corner, max_corner


def mixed_units(
    space: SearchSpace, directions: np.ndarray, count: int, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` mixed units as (weights, biases), with kink hyperplanes
    guaranteed to cross the box.

    For a direction w with extreme values lo = w . argmin and hi = w . argmax
    over the box, any bias in [-hi, -lo] puts the zero level set of
    w . x + bias inside the box; the bias is drawn uniformly from that range.
    Each unit draws its direction index and then its bias from ``rng``.
    """
    directions = np.asarray(directions, dtype=float)
    if space.n_continuous >= 1 and len(directions) == 0:
        raise EmptyDirectionSetError(
            "a space with continuous variables needs at least one direction"
        )
    ranges = []
    for w in directions:
        min_corner, max_corner = corner_points(space, w)
        ranges.append((float(w @ min_corner), float(w @ max_corner)))
    picks = np.empty(count, dtype=int)
    biases = np.empty(count)
    for k in range(count):
        picks[k] = rng.integers(len(directions))
        lo, hi = ranges[picks[k]]
        biases[k] = rng.uniform(-hi, -lo)
    return directions[picks], biases


def build_surrogate(space: SearchSpace, rng: RandomStream) -> ReluSurrogate:
    """Assemble the model for a space and attach a fresh least squares state.

    The integer block is enumerated exhaustively; the number of mixed units
    scales it by the continuous/integer dimension ratio,
    ceil(n_continuous * n_integer_units / n_integer). Coefficients start at 1
    for the constant and integer units (a separable bowl whose minima sit on
    integer points) and 0 for the mixed units.
    """
    weights, biases = integer_units(space)
    n_int_units = len(biases) - 1
    n_mixed = 0
    if space.n_continuous > 0:
        directions = sample_directions(space, rng)
        n_mixed = math.ceil(space.n_continuous * n_int_units / space.n_integer)
        mixed_weights, mixed_biases = mixed_units(space, directions, n_mixed, rng)
        weights = np.concatenate([weights, mixed_weights])
        biases = np.concatenate([biases, mixed_biases])
    coeffs = np.concatenate([np.ones(1 + n_int_units), np.zeros(n_mixed)])
    fit = RecursiveLeastSquares(coeffs, lam=REGULARISER)
    return ReluSurrogate(weights, biases, fit.coeffs, rls=fit)


# -- exhaustive vertex enumeration (test support) -----------------------------


@dataclass(frozen=True, eq=False)
class Vertex:
    """Intersection point of dim kink hyperplanes."""

    point: MixedPoint
    unit_indices: tuple[int, ...]
    in_bounds: bool


def enumerate_vertices(
    model: ReluSurrogate, space: SearchSpace, max_subsets: int = 2_000_000
) -> list[Vertex]:
    """All kink intersections defined by linearly independent unit subsets.

    Every size-dim subset of units whose weight vectors are linearly
    independent contributes one vertex (the simultaneous zero of its units);
    vertices outside the box are returned too, flagged by ``in_bounds``.
    Intended for small models only; raises TooLargeError when the subset
    count exceeds ``max_subsets``, and DimensionMismatchError when the mixed
    rows span more than n_continuous dimensions.
    """
    if model.dim != space.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != space dim {space.dim}")
    m, dim = model.n_units, space.dim
    total = math.comb(m, dim)
    if total > max_subsets:
        raise TooLargeError(f"{total} subsets exceed the enumeration budget {max_subsets}")
    if total == 0:
        return []

    nc, nd = space.n_continuous, space.n_integer
    weights, biases = model.weights, model.biases
    # a unit's kind is read off its row: 0 constant (all-zero row), 1 integer
    # (zero continuous block), 2 mixed (anything else)
    kinds = np.where(np.any(weights != 0.0, axis=1), 1, 0)
    kinds[np.any(weights[:, :nc] != 0.0, axis=1)] = 2
    # only when mixed rows span at most nc dimensions is "independent subset"
    # the same as "nd integer units with invertible integer block plus nc
    # mixed units with invertible continuous block"
    mixed_rows = weights[kinds == 2]
    rank = np.linalg.matrix_rank(mixed_rows) if len(mixed_rows) else 0
    if rank > nc:
        raise DimensionMismatchError(
            f"mixed unit rows span {rank} dimensions, more than the {nc} continuous ones"
        )
    subsets = np.array(list(itertools.combinations(range(m), dim)), dtype=int)
    keep = _structural_candidates(subsets, kinds, nc, nd)
    return _solve_structured(subsets[keep], kinds, weights, biases, space)


def _structural_candidates(
    subsets: np.ndarray, kinds: np.ndarray, nc: int, nd: int
) -> np.ndarray:
    """Mask of subsets that can possibly be independent: exactly nd integer
    units and nc mixed units, no constant (its weight vector is zero)."""
    sub_kinds = kinds[subsets]
    return (
        np.all(sub_kinds != 0, axis=1)
        & (np.sum(sub_kinds == 1, axis=1) == nd)
        & (np.sum(sub_kinds == 2, axis=1) == nc)
    )


def _solve_structured(
    subsets: np.ndarray,
    kinds: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    space: SearchSpace,
) -> list[Vertex]:
    """Block solve: integer units pin the integer coordinates (an integral
    difference system, solved on its own so its exactness never degrades
    through the mixed rows), then mixed units pin the continuous ones."""
    if len(subsets) == 0:
        return []
    nc, nd = space.n_continuous, space.n_integer
    # order each subset integer-units-first; built models already are, but
    # hand-built ones need not be
    order = np.argsort(kinds[subsets], axis=1, kind="stable")
    ordered = np.take_along_axis(subsets, order, axis=1)
    int_part, mix_part = ordered[:, :nd], ordered[:, nd:]

    a_int = weights[int_part][:, :, nc:]
    b_int = biases[int_part]
    ok = np.abs(np.linalg.det(a_int)) > 0.5  # entries are integers, so det is too
    if nc > 0:
        v_mix = weights[mix_part][:, :, :nc]
        sv = np.linalg.svd(v_mix, compute_uv=False)
        ok &= sv[:, -1] > 1e-9 * np.maximum(sv[:, 0], np.finfo(float).tiny)
    if not np.any(ok):
        return []

    xd = np.linalg.solve(a_int[ok], -b_int[ok][..., None])[..., 0]
    if nc > 0:
        w_mix_d = weights[mix_part[ok]][:, :, nc:]
        rhs = -(biases[mix_part[ok]] + np.einsum("nij,nj->ni", w_mix_d, xd))
        xc = np.linalg.solve(v_mix[ok], rhs[..., None])[..., 0]
    else:
        xc = np.zeros((len(xd), 0))
    return _collect(subsets[ok], xc, xd, space)


def _collect(
    subsets: np.ndarray, xc: np.ndarray, xd: np.ndarray, space: SearchSpace
) -> list[Vertex]:
    slack = 1e-12
    lo_c, up_c = space.continuous_lower, space.continuous_upper
    lo_d, up_d = space.integer_lower, space.integer_upper
    inside = (
        np.all(xc >= lo_c - slack, axis=1)
        & np.all(xc <= up_c + slack, axis=1)
        & np.all(xd >= lo_d - slack, axis=1)
        & np.all(xd <= up_d + slack, axis=1)
    )
    return [
        Vertex(MixedPoint(xc[i], xd[i]), tuple(int(j) for j in subsets[i]), bool(inside[i]))
        for i in range(len(subsets))
    ]
