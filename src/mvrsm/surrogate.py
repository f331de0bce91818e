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

from .errors import DimensionMismatchError, InvalidSettingError
from .rls import RecursiveLeastSquares
from .space import SearchSpace

__all__ = ["ReluSurrogate", "sample_directions", "corner_points", "build_surrogate"]

RandomStream = np.random.Generator

REGULARISER = 1e-8  # ridge strength for the coefficient fit

# Points whose pre-activations a model keeps: box descent alternates between
# its iterate and one line-search trial, and an accepted trial becomes the
# next iterate.
_MEMO_POINTS = 2

# Rows per group in OpenBLAS's matrix-vector kernel. Under one BLAS thread a
# row's dot product depends only on whether the row sits in a full group or in
# the final len(rows) mod 4 remainder; the distinct-row layout is built on that.
_GEMV_GROUP = 4


@dataclass
class ReluSurrogate:
    """The fitted model: unit rows are frozen after construction, coefficients are not.

    Every method takes a point (and a direction) as one flat float vector in
    block layout [continuous; integer], as ``MixedPoint.flatten`` gives it.
    Unit k is row ``row_of[k]`` of ``rows`` (in that layout) plus
    ``biases[k]``: integer units are +-e_i or +-(e_i - e_{i-1}) and mixed
    units share n_continuous directions, so the M = 6629 units of
    rosenbrock238 have 597 distinct rows. The dense unit rows
    ``weights = rows[row_of]`` are never formed. The model owns
    its unit rows: ``rows``, ``row_of`` and ``biases`` are made read-only,
    without a copy, when they are set. The pre-activations
    z = weights @ x + biases do not depend on the coefficients, so they are
    computed once per point and kept for two points (the descent's iterate
    and its latest line-search trial); assigning any of the three forgets
    them. ``coeffs`` is shared with the attached least squares state (when
    one is attached), so updates through either view are seen by both.

    The forward products weights @ v (pre-activations and directional rates)
    are (rows @ v)[row_of], with the bits of the dense product. Under one
    BLAS thread a row's dot product depends only on whether the row sits in a
    full 4-row kernel group or in the last M mod 4 rows, so the distinct rows
    are padded with zero rows to whole groups, the last M mod 4 units get
    their own copies at the very end, and a row and its negation are stored
    apart (folding the sign would turn a +0 product into -0).

    The transpose products weights.T @ u of ``gradient`` and
    ``axis_derivatives`` sum u over the units of each row (a bincount, in
    unit order), then multiply by rows.T. That sums in another order than the
    dense product, so its low bits differ from it.
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
            # (coordinate bytes, z, reused) per point, in the order to forget them
            object.__setattr__(self, "_z_memo", [])
            if name == "rows":
                # the rows' positive and negative parts, for the kink terms
                # of axis_derivatives
                down = np.negative(value)
                object.__setattr__(self, "_rows_down", np.maximum(down, 0.0, out=down))
                object.__setattr__(self, "_rows_up", np.maximum(value, 0.0))
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
        """weights @ v, formed from the distinct unit rows with the same bits."""
        return (self.rows @ v).take(self.row_of)

    def _per_row(self, u: np.ndarray) -> np.ndarray:
        """u summed over the units of each distinct row, in unit order."""
        return np.bincount(self.row_of, weights=u, minlength=len(self.rows))

    def _preactivation(self, x) -> np.ndarray:
        """Read-only z = weights @ x + biases, remembered for two points.

        When a new point needs room, a point not used again since it was
        formed (a line-search trial rejected on its value) is forgotten first,
        otherwise the least recently used one. The memo is kept in that
        order: points not reused yet, oldest first, then reused points, least
        recently used first.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self.rows.shape[1:]:
            raise DimensionMismatchError(f"point of shape {x.shape}, model dim {self.dim}")
        key = x.tobytes()
        memo = self._z_memo
        for i, (known, z, _) in enumerate(memo):
            if known == key:
                del memo[i]
                memo.append((key, z, True))
                return z
        z = self._forward(x)
        z += self.biases
        z.flags.writeable = False
        if len(memo) == _MEMO_POINTS:
            del memo[0]
        i = len(memo)
        while i and memo[i - 1][2]:
            i -= 1
        memo.insert(i, (key, z, False))
        return z

    def features(self, x) -> np.ndarray:
        """Unit activations phi_k(x) = max(0, w_k . x + b_k)."""
        return np.maximum(self._preactivation(x), 0.0)

    def value(self, x) -> float:
        return float(self.coeffs.dot(self.features(x)))

    def gradient(self, x) -> np.ndarray:
        """Subgradient sum_k c_k s(z_k) w_k with s = 1 above the kink, 0 below, 1/2 at it."""
        z = self._preactivation(x)
        slope = np.where(z > 0.0, 1.0, np.where(z < 0.0, 0.0, 0.5))
        return self.rows.T @ self._per_row(self.coeffs * slope)

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
        if direction.shape != self.rows.shape[1:]:
            raise DimensionMismatchError(
                f"direction of shape {direction.shape}, model dim {self.dim}"
            )
        rate = self._forward(direction)
        slope = np.where(z > 0.0, rate, 0.0)
        np.maximum(rate, 0.0, out=slope, where=z == 0.0)
        return float(self.coeffs.dot(slope))

    def axis_derivatives(self, x) -> tuple[np.ndarray, np.ndarray]:
        """One-sided derivatives along +e_i and -e_i for every coordinate.

        Equivalent to calling ``directional_derivative`` with each signed unit
        vector, but in a handful of matrix products. Used by the descent loop
        to find a usable coordinate move when quasi-Newton directions fail at
        a kink point.
        """
        z = self._preactivation(x)
        base = self.rows.T @ self._per_row(self.coeffs * (z > 0.0))
        c_kink = self._per_row(np.where(z == 0.0, self.coeffs, 0.0))
        return base + self._rows_up.T @ c_kink, -base + self._rows_down.T @ c_kink

    def first_uphill_kink(self, x, i: int, sign: float, slope: float, room: float) -> float:
        """Distance t along ``sign`` * e_i from ``x`` to the first kink past
        which the model's exact slope is >= 0, or ``room`` if none comes first.

        ``slope`` is the exact one-sided slope at t = 0+, as ``axis_derivatives``
        gives it. Unit k's pre-activation moves as z_k + t r_k with
        r_k = ``sign`` * w_ki, so its kink is at t_k = -z_k / r_k, and crossing
        it changes the slope by c_k |r_k|: up for c_k > 0, down for c_k < 0.
        Kinks in (0, room) are summed in order of t_k (ties in unit order), and
        the slope past a kink counts every unit kinked at the same t. A unit at
        its kink at ``x`` (t_k = +-0) is already counted in ``slope``.
        """
        z = self._preactivation(x)
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


def _integer_block(space: SearchSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The deterministic units, one constant unit then every integer unit, as
    (distinct rows, row of each unit, biases).

    Unit order is fixed: constant; single-variable units by variable, then
    threshold, then sign (+ before -); adjacent-pair units likewise. The rows
    are the constant unit's zero row, then a + and a - row for each integer
    variable i (+-e_i) and each adjacent pair (+-(e_i - e_{i-1})).
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

    var = np.concatenate([np.arange(nd), np.arange(1, nd)])
    diff = np.arange(nd, len(var))
    rows = np.zeros((1 + 2 * len(var), space.dim))
    for first, s in ((1, 1.0), (2, -1.0)):
        k = first + 2 * np.arange(len(var))
        rows[k, nc + var] = s
        rows[k[diff], nc + var[diff] - 1] = -s
    return rows, row_of, biases


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
    nonneg = weights >= 0.0
    min_corner = np.where(nonneg, space.lower, space.upper)
    max_corner = np.where(nonneg, space.upper, space.lower)
    return min_corner, max_corner


def _raw_to_double(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each raw word: its top 53 bits times 2**-53."""
    return (words >> 11) * 2.0**-53


def _index_then_double(rng: RandomStream, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``count`` pairs of scalar calls ``rng.integers(n)``, ``rng.random()``
    return (1 <= n < 2**32), as (indices, doubles), read at once from the bit
    generator's raw 64-bit words. The generator is left as those calls leave it.

    numpy draws ``integers(n)`` by Lemire's method on one 32-bit draw x: it
    returns (x * n) >> 32, and draws x again while (x * n) mod 2**32 is below
    (2**32 - n) mod n; ``integers(1)`` draws nothing. A 32-bit draw takes the
    high half of the last raw word when that half is buffered (``has_uint32``
    in the bit generator's state), else the low half of a new word, buffering
    its high half. ``random()`` takes a new word and leaves the buffer alone.
    So a unit takes a new word for its index every other unit. A unit whose
    x is drawn again is redone with the scalar calls, and the replay goes on
    after it.
    """
    bit_generator = rng.bit_generator
    if "has_uint32" not in bit_generator.state:
        raise InvalidSettingError(
            "rng",
            f"must buffer 32-bit draws (PCG64, PCG64DXSM, Philox or SFC64), "
            f"not {type(bit_generator).__name__}",
        )
    if n == 1:
        return np.zeros(count, dtype=np.int64), _raw_to_double(bit_generator.random_raw(count))
    picks, doubles = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    while count:
        state = bit_generator.state
        k = np.arange(count)
        # the units that take a new word for their index
        fresh = (k + state["has_uint32"]) % 2 == 0
        # word 0 holds the buffered half; each unit's double is the word after
        # its index's word, or two after it when it uses the buffered half
        words = np.concatenate(
            [np.array([state["uinteger"] << 32], dtype=np.uint64),
             bit_generator.random_raw(count + fresh.sum())]
        )
        double_at = 1 + k + np.cumsum(fresh)
        held = words[np.maximum(double_at - 1 - ~fresh, 0)]
        scaled = np.where(fresh, held & 0xFFFFFFFF, held >> 32) * np.uint64(n)
        redrawn = np.flatnonzero((scaled & 0xFFFFFFFF) < (2**32 - n) % n)
        done = redrawn[0] if len(redrawn) else count
        picks.append((scaled[:done] >> 32).astype(np.int64))
        doubles.append(_raw_to_double(words[double_at[:done]]))
        if done < count:  # back to the end of the units kept
            bit_generator.state = state
            bit_generator.random_raw(double_at[done - 1] if done else 0)
        if done:  # the buffer as the scalar calls leave it, a used half included
            state = bit_generator.state
            state["has_uint32"] = (state["has_uint32"] + done) % 2
            state["uinteger"] = int(held[done - 1]) >> 32
            bit_generator.state = state
        if done == count:
            break
        picks.append(np.array([rng.integers(n)]))
        doubles.append(np.array([rng.random()]))
        count -= done + 1
    return np.concatenate(picks), np.concatenate(doubles)


def _draw_mixed_units(
    space: SearchSpace, directions: np.ndarray, count: int, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` mixed units as (direction index of each unit, biases), with
    kink hyperplanes guaranteed to cross the box.

    For a direction w with extreme values lo = w . argmin and hi = w . argmax
    over the box, any bias in [-hi, -lo] puts the zero level set of
    w . x + bias inside the box; the bias is drawn uniformly from that range.
    The stream is that of one ``rng.integers(len(directions))`` and then one
    ``rng.uniform(-hi, -lo)`` per unit, in unit order; it is replayed from the
    bit generator's raw words by ``_index_then_double``, with the same bits.
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

    ``rng`` gives the directions, then one direction index and one bias per
    mixed unit; the pairs are replayed from its raw words, so its bit
    generator must buffer 32-bit draws (MT19937 does not, and raises
    ``InvalidSettingError``). A space with no continuous variable draws nothing.
    """
    rows, row_of, biases = _integer_block(space)
    n_int_units = len(biases) - 1
    directions = sample_directions(space, rng)
    n_mixed = math.ceil(space.n_continuous * n_int_units / space.n_integer)
    picks, mixed_biases = _draw_mixed_units(space, directions, n_mixed, rng)
    # the used directions in order of first use: the transpose products sum
    # the rows in this order, so the seeded traces' bits depend on it
    order = list(dict.fromkeys(picks.tolist()))
    rank = np.empty(len(directions), dtype=np.intp)
    rank[order] = np.arange(len(order))
    row_of = np.concatenate([row_of, len(rows) + rank[picks]])
    rows = np.concatenate([rows, directions[order]])
    biases = np.concatenate([biases, mixed_biases])
    coeffs = np.concatenate([np.ones(1 + n_int_units), np.zeros(n_mixed)])
    fit = RecursiveLeastSquares(coeffs, lam=REGULARISER)
    rows, row_of = _grouped_rows(rows, row_of)
    return ReluSurrogate(rows, row_of, biases, fit.coeffs, rls=fit)


def _grouped_rows(rows: np.ndarray, row_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay out a factorisation so that (rows @ v)[row_of] == weights @ v bit for bit.

    The rows are padded with zero rows to whole kernel groups, and the last
    M mod 4 units point at their own copies appended after the padding, so
    each unit's row is in a full group or in the remainder just as in the
    dense matrix.
    """
    m, tail = len(row_of), len(row_of) % _GEMV_GROUP
    pad = -len(rows) % _GEMV_GROUP
    grouped = np.concatenate(
        [rows, np.zeros((pad, rows.shape[1])), rows[row_of[m - tail :]]]
    )
    row_of = row_of.copy()
    row_of[m - tail :] = len(rows) + pad + np.arange(tail)
    return grouped, row_of
