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
surrogate therefore have exact integer values in the integer block; the
tests check the claim by enumerating every vertex of small models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .rls import RecursiveLeastSquares
from .space import SearchSpace

__all__ = ["ReluSurrogate", "sample_directions", "corner_points", "build_surrogate"]

RandomStream = np.random.Generator

REGULARISER = 1e-8  # ridge strength for the coefficient fit

# Rows per group in OpenBLAS's matrix-vector kernel. Under one BLAS thread a
# row's dot product depends only on whether the row sits in a full group or in
# the final len(rows) mod 4 remainder; the distinct-row layout is built on that.
_GEMV_GROUP = 4


@dataclass
class ReluSurrogate:
    """The fitted model: unit rows are frozen after construction, coefficients are not.

    A point x (and a direction) is one flat float vector in block layout
    [continuous; integer], as ``MixedPoint.flatten`` gives it. Unit k is row
    ``row_of[k]`` of ``rows`` (in that layout) plus ``biases[k]``: integer
    units are +-e_i or +-(e_i - e_{i-1}) and mixed units share n_continuous
    directions, so the M = 6629 units of rosenbrock238 have 597 distinct
    rows. The dense unit rows ``weights = rows[row_of]`` are never formed.
    The model owns its unit rows: ``rows``, ``row_of`` and ``biases`` are
    made read-only, without a copy, when they are set. A point enters the
    model only through its pre-activations z = weights @ x + biases, which do
    not depend on the coefficients: ``preactivations`` forms them, every
    other method takes z in place of x, and the model keeps none. ``coeffs``
    is shared with the attached least squares state (when one is attached),
    so updates through either view are seen by both.

    The forward products weights @ v (pre-activations and directional rates)
    are (rows @ v)[row_of], with the bits of the dense product. Under one
    BLAS thread a row's dot product depends only on whether the row sits in a
    full 4-row kernel group or in the last M mod 4 rows, so the distinct rows
    are padded with zero rows to whole groups, the last M mod 4 units get
    their own copies at the very end, and a row and its negation are stored
    apart (folding the sign would turn a +0 product into -0).
    ``preactivations`` and ``value`` also take a stack of points (or of their
    z), one row each, and give each row the bytes of the call on it alone.

    The transpose products weights.T @ u of ``gradient`` and
    ``axis_derivatives`` sum u over the units of each row (a bincount, in
    unit order), then multiply by rows.T. That sums in another order than the
    dense product, so its low bits differ from it. The kink terms of
    ``axis_derivatives`` need max(rows, 0) and max(-rows, 0); its first call
    forms them (many sessions make none), and assigning ``rows`` forgets them.
    """

    rows: np.ndarray
    row_of: np.ndarray
    biases: np.ndarray
    coeffs: np.ndarray
    rls: RecursiveLeastSquares | None = None

    def __setattr__(self, name, value):
        if name in ("rows", "row_of", "biases"):
            value = np.asanyarray(value, dtype=np.intp if name == "row_of" else float)
            value.flags.writeable = False
            if name == "rows":
                # max(+-rows, 0), formed again at the next axis_derivatives call
                object.__setattr__(self, "_kink_parts", None)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        m, row_of = len(self.biases), self.row_of
        if self.rows.ndim != 2 or row_of.shape != (m,) or len(self.coeffs) != m:
            raise DimensionMismatchError(
                f"rows of shape {self.rows.shape}, row_of of shape {row_of.shape}, "
                f"{m} biases and {len(self.coeffs)} coefficients"
            )
        if np.any((row_of < 0) | (row_of >= len(self.rows))):
            raise DimensionMismatchError(f"row_of names rows outside the {len(self.rows)} rows")

    @property
    def n_units(self) -> int:
        return len(self.coeffs)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def _forward(self, v: np.ndarray) -> np.ndarray:
        """weights @ v, row by row for an (n, dim) stack, formed from the
        distinct unit rows with the same bits (one gemv per row, not a gemm)."""
        if v.ndim == 1:
            return (self.rows @ v)[self.row_of]
        return (self.rows @ v[:, :, None])[:, :, 0].take(self.row_of, axis=1)

    def _per_row(self, u: np.ndarray) -> np.ndarray:
        """u summed over the units of each distinct row, in unit order."""
        return np.bincount(self.row_of, weights=u, minlength=len(self.rows))

    def preactivations(self, x) -> np.ndarray:
        """Read-only z = weights @ x + biases, what the other methods take for x.

        ``x`` is one point or an (n, dim) stack of them; each row of a stack's
        z has the bytes of the call on that row alone.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self.rows.shape[1:] or x.ndim not in (1, 2):
            raise DimensionMismatchError(f"point of shape {x.shape}, model dim {self.dim}")
        z = self._forward(x)
        z += self.biases
        z.flags.writeable = False
        return z

    def features(self, z) -> np.ndarray:
        """Unit activations phi_k(x) = max(0, z_k)."""
        return np.maximum(z, 0.0)

    def value(self, z):
        """The value at one point's z, or an array of values for a stack of z
        as ``preactivations`` gives it (one dot product per row, same bits)."""
        features = self.features(z)
        if features.ndim == 1:
            return float(self.coeffs.dot(features))
        return (features[:, None, :] @ self.coeffs[:, None])[:, 0, 0]

    def gradient(self, z) -> np.ndarray:
        """Subgradient sum_k c_k s(z_k) w_k with s = 1 above the kink, 0 below, 1/2 at it.

        s = (sign(z) + 1) / 2, so a NaN in z gives a NaN gradient; its value
        is NaN too, which the descent rejects before it forms a gradient.
        """
        slope = np.sign(z)
        slope += 1.0
        slope *= 0.5
        slope *= self.coeffs
        return self.rows.T @ self._per_row(slope)

    def directional_derivative(self, z, direction: np.ndarray) -> float:
        """Exact one-sided derivative of the model along ``direction`` at the
        point x whose pre-activations are ``z``.

        Unlike ``gradient``, which averages the two slopes of a unit sitting
        exactly at its kink, this resolves each such unit by the side the
        direction moves into: lim_{t -> 0+} (g(x + t d) - g(x)) / t. Away from
        kinks the two agree. At integer points many integer units sit at their
        kink at once, where the averaged gradient can predict descent along a
        direction that is actually uphill; line searches should trust this
        value instead.
        """
        direction = np.asarray(direction, dtype=float)
        if direction.shape != self.rows.shape[1:]:
            raise DimensionMismatchError(
                f"direction of shape {direction.shape}, model dim {self.dim}"
            )
        rate = self._forward(direction)
        slope = np.where(z > 0.0, rate, 0.0)
        np.maximum(rate, 0.0, out=slope, where=z == 0.0)
        return float(self.coeffs.dot(slope))

    def axis_derivatives(self, z) -> tuple[np.ndarray, np.ndarray]:
        """One-sided derivatives along +e_i and -e_i for every coordinate.

        Equivalent to calling ``directional_derivative`` with each signed unit
        vector, but in a handful of matrix products. Used by the descent loop
        to find a usable coordinate move when quasi-Newton directions fail at
        a kink point.
        """
        if self._kink_parts is None:
            down = np.negative(self.rows)
            self._kink_parts = np.maximum(self.rows, 0.0), np.maximum(down, 0.0, out=down)
        rows_up, rows_down = self._kink_parts
        base = self.rows.T @ self._per_row(self.coeffs * (z > 0.0))
        c_kink = self._per_row(self.coeffs * (z == 0.0))
        return base + rows_up.T @ c_kink, -base + rows_down.T @ c_kink

    def first_uphill_kink(self, z, i: int, sign: float, slope: float, room: float) -> float:
        """Distance t along ``sign`` * e_i from the point x whose pre-activations
        are ``z`` to the first kink past which the model's exact slope is >= 0,
        or ``room`` if none comes first.

        ``slope`` is the exact one-sided slope at t = 0+, as ``axis_derivatives``
        gives it. Unit k's pre-activation moves as z_k + t r_k with
        r_k = ``sign`` * w_ki, so its kink is at t_k = -z_k / r_k, and crossing
        it changes the slope by c_k |r_k|: up for c_k > 0, down for c_k < 0.
        Kinks in (0, room) are summed in order of t_k (ties in unit order), and
        the slope past a kink counts every unit kinked at the same t. A unit at
        its kink at x (t_k = +-0) is already counted in ``slope``.
        """
        rate = sign * self.rows[:, i].take(self.row_of)
        moving = rate != 0.0
        rate = rate[moving]
        t = -z[moving] / rate
        ahead = (t > 0.0) & (t < room)
        t = t[ahead]
        order = np.argsort(t, kind="stable")
        t = t[order]
        slopes = slope + np.cumsum((self.coeffs[moving][ahead] * np.abs(rate[ahead]))[order])
        past = np.append(t[1:] != t[:-1], True)  # the last unit kinked at its t
        turned = np.flatnonzero((slopes >= 0.0) & past)
        return float(t[turned[0]]) if len(turned) else room


# -- basis construction ------------------------------------------------------


def _integer_block(space: SearchSpace) -> tuple[np.ndarray, np.ndarray, int, tuple]:
    """The deterministic units, one constant unit then every integer unit, as
    (row of each unit, biases, number of distinct rows, their nonzero entries).

    Unit order is fixed: constant; single-variable units by variable, then
    threshold, then sign (+ before -); adjacent-pair units likewise. The rows
    are the constant unit's zero row, then a + and a - row for each integer
    variable i (+-e_i) and each adjacent pair (+-(e_i - e_{i-1})), given by
    their nonzero entries as ((row index, column index), value) arrays.
    """
    nc, nd = space.n_continuous, space.n_integer
    lo = space.integer_lower.astype(int)
    up = space.integer_upper.astype(int)
    # one (p, threshold) per +/- unit pair, whose rows are +-e_p for p < nd
    # and +-(e_i - e_{i-1}) with i = p - nd + 1 otherwise; p's thresholds
    # run from first[p] to last[p]
    first = np.concatenate([lo, lo[1:] - up[:-1]])
    last = np.concatenate([up, up[1:] - lo[:-1]])
    counts = last - first + 1
    p = np.repeat(np.arange(len(counts)), counts)
    thresh = np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts - first, counts)
    p, thresh = np.repeat(p, 2), np.repeat(thresh, 2)
    sign = np.tile([1.0, -1.0], len(p) // 2)
    row_of = np.concatenate([[0], 1 + 2 * p + (sign < 0.0)])
    biases = np.concatenate([[1.0], -sign * thresh])

    var = nc + np.concatenate([np.arange(nd), np.arange(1, nd)])
    plus = 1 + 2 * np.arange(len(var))
    diff = np.arange(nd, len(var))
    at = np.concatenate([plus, plus[diff], plus + 1, plus[diff] + 1])
    col = np.concatenate([var, var[diff] - 1, var, var[diff] - 1])
    values = np.repeat([1.0, -1.0, -1.0, 1.0], [len(var), len(diff)] * 2)
    return row_of, biases, 1 + 2 * len(var), ((at, col), values)


def sample_directions(space: SearchSpace, rng: RandomStream) -> np.ndarray:
    """n_continuous random directions, components uniform on [-1/dim, 1/dim].

    Mixed units draw their weight vectors from this set (with replacement), so
    at most n_continuous linearly independent mixed kinks can meet at a point.
    """
    bound = 1.0 / space.dim
    return rng.uniform(-bound, bound, size=(space.n_continuous, space.dim))


def corner_points(space: SearchSpace, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box corners minimizing and maximizing the linear form weights . x.

    ``weights`` is one vector or an (n, dim) stack of them, one pair of
    corners per row. Zero weight components follow the >= 0 branch (lower
    bound in the minimizing corner), which keeps the choice deterministic.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1] != space.dim:
        raise DimensionMismatchError(f"weights of shape {weights.shape}, space dim {space.dim}")
    # each entry is one bound's bytes, picked as upper ^ (lower ^ upper) or
    # upper ^ 0 (a quarter of the time of a broadcast np.where)
    lower, upper = space.lower.view(np.uint64), space.upper.view(np.uint64)
    differ = lower ^ upper
    min_corner = upper ^ (differ * (weights >= 0.0))
    return min_corner.view(float), (min_corner ^ differ).view(float)


def _raw_to_double(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each raw word: its top 53 bits times 2**-53."""
    return (words >> 11) * 2.0**-53


def _index_then_double(rng: RandomStream, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``count`` pairs of scalar calls ``rng.integers(n)``, ``rng.random()``
    return (1 <= n < 2**32), as (indices, doubles). The generator is left as
    those calls leave it.

    numpy draws ``integers(n)`` by Lemire's method on one 32-bit draw x: it
    returns (x * n) >> 32, and draws x again while (x * n) mod 2**32 is below
    (2**32 - n) mod n; ``integers(1)`` draws nothing. A 32-bit draw takes the
    high half of the last raw word when that half is buffered (``has_uint32``
    in the bit generator's state), else the low half of a new word, buffering
    its high half. ``random()`` takes a new word and leaves the buffer alone.
    So for n > 1, from an empty buffer each two units read three words: the
    first holds both indices, one in each half, and each unit's double is one
    word. Those pairs are read at once. n = 1, a buffered half, a bit
    generator without a 32-bit buffer (MT19937) or an x drawn again takes the
    pairs from the scalar calls.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    if count and n > 1 and state.get("has_uint32") == 0:
        words = bit_generator.random_raw(count + (count + 1) // 2)
        held = words[::3]
        scaled = np.stack([held & 0xFFFFFFFF, held >> 32], axis=1).ravel()[:count] * np.uint64(n)
        if not np.any((scaled & 0xFFFFFFFF) < (2**32 - n) % n):
            # the buffer as the scalar calls leave it
            after = bit_generator.state
            after["has_uint32"], after["uinteger"] = count % 2, int(held[-1] >> 32)
            bit_generator.state = after
            return (scaled >> 32).astype(np.int64), _raw_to_double(np.delete(words, np.s_[::3]))
        bit_generator.state = state
    picks, doubles = np.zeros(count, dtype=np.int64), np.empty(count)
    for k in range(count):
        picks[k], doubles[k] = rng.integers(n), rng.random()
    return picks, doubles


def _draw_mixed_units(
    space: SearchSpace, directions: np.ndarray, count: int, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` mixed units as (direction index of each unit, biases), with
    kink hyperplanes guaranteed to cross the box.

    For a direction w with extreme values lo = w . argmin and hi = w . argmax
    over the box, any bias in [-hi, -lo] puts the zero level set of
    w . x + bias inside the box; the bias is drawn uniformly from that range.
    The stream is that of one ``rng.integers(len(directions))`` and then one
    ``rng.uniform(-hi, -lo)`` per unit, in unit order, with the bits of those
    calls; ``_index_then_double`` reads the pairs.
    """
    picks, u = _index_then_double(rng, len(directions), count)
    min_corners, max_corners = corner_points(space, directions)
    # one dot product per direction, summed as w @ corner sums it
    lo = np.matmul(directions[:, None, :], min_corners[:, :, None]).ravel()
    hi = np.matmul(directions[:, None, :], max_corners[:, :, None]).ravel()
    # the arithmetic of rng.uniform(-hi, -lo)
    low = -hi
    width = -lo - low
    return picks, low[picks] + width[picks] * u


def build_surrogate(space: SearchSpace, rng: RandomStream) -> ReluSurrogate:
    """Assemble the model for a space and attach a fresh least squares state.

    The integer block is enumerated exhaustively; the number of mixed units
    scales it by the continuous/integer dimension ratio,
    ceil(n_continuous * n_integer_units / n_integer). Coefficients start at 1
    for the constant and integer units (a separable bowl whose minima sit on
    integer points) and 0 for the mixed units.

    ``rng``, any ``Generator``, gives the directions, then one direction index
    and one bias per mixed unit, as the scalar calls would. A space with no
    continuous variable draws nothing.
    The distinct rows, the integer block's and then the used directions, are
    written once, into the one array of ``_grouped_rows``' layout.
    """
    row_of, biases, n_int_rows, integer_rows = _integer_block(space)
    n_int_units = len(biases) - 1
    directions = sample_directions(space, rng)
    n_mixed = math.ceil(space.n_continuous * n_int_units / space.n_integer)
    picks, mixed_biases = _draw_mixed_units(space, directions, n_mixed, rng)
    # the used directions in order of first use: the transpose products sum
    # the rows in this order, so the seeded traces' bits depend on it
    units, first = np.arange(n_mixed), np.full(len(directions), n_mixed)
    np.minimum.at(first, picks, units)
    order = picks[first[picks] == units]
    rank = np.empty(len(directions), dtype=np.intp)
    rank[order] = np.arange(len(order))
    row_of = np.concatenate([row_of, n_int_rows + rank[picks]])
    n_rows = n_int_rows + len(order)
    used = (slice(n_int_rows, n_rows), directions[order])
    rows = _grouped_rows(n_rows, row_of, space.dim, integer_rows, used)
    biases = np.concatenate([biases, mixed_biases])
    coeffs = np.concatenate([np.ones(1 + n_int_units), np.zeros(n_mixed)])
    fit = RecursiveLeastSquares(coeffs, lam=REGULARISER)
    return ReluSurrogate(rows, row_of, biases, fit.coeffs, rls=fit)


def _grouped_rows(n_rows: int, row_of: np.ndarray, dim: int, *writes) -> np.ndarray:
    """The rows of a factorisation laid out so that (rows @ v)[row_of] ==
    weights @ v bit for bit; ``row_of`` is moved into the layout in place.

    ``writes`` are (index, values) pairs that put the ``n_rows`` distinct rows
    first. They are padded with zero rows to whole kernel groups, and the last
    M mod 4 units point at their own copies after the padding, so each unit's
    row is in a full group or in the remainder just as in the dense matrix.
    """
    m, tail = len(row_of), len(row_of) % _GEMV_GROUP
    rows = np.zeros((n_rows + -n_rows % _GEMV_GROUP + tail, dim))
    for at, values in writes:
        rows[at] = values
    rows[len(rows) - tail :] = rows[row_of[m - tail :]]
    row_of[m - tail :] = len(rows) - tail + np.arange(tail)
    return rows
