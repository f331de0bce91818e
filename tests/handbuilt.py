"""Hand-built surrogates, and the dense arrays the tests check models, fits
and traces against.

The package builds a model one way, ``build_surrogate``. ``from_weights``
builds one from dense unit rows, for tests that need a model small enough
to reason about, and lays its rows out as the builder does: a hand-built
copy of a built model has the same layout and gives the same bits.
``concatenated_build`` assembles the builder's arrays block by block, as
the builder once did, for the tests that check its one-pass assembly.
"""

from __future__ import annotations

import math

import numpy as np

from mvrsm.errors import DimensionMismatchError
from mvrsm.surrogate import (
    ReluSurrogate,
    _draw_mixed_units,
    _grouped_rows,
    _integer_block,
    sample_directions,
)


def _distinct_rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact factorisation weights == rows[row_of]: rows with equal bytes are
    stored once, in order of first appearance."""
    index: dict[bytes, int] = {}
    row_of = np.array(
        [index.setdefault(row.tobytes(), len(index)) for row in weights], dtype=np.intp
    )
    first = np.unique(row_of, return_index=True)[1]
    return weights[first], row_of


def from_weights(weights, biases, coeffs) -> ReluSurrogate:
    """The model whose unit k is row k of ``weights`` plus ``biases[k]``."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise DimensionMismatchError(f"weights of shape {weights.shape}")
    distinct, row_of = _distinct_rows(weights)
    n_rows = len(distinct)
    rows = _grouped_rows(n_rows, row_of, weights.shape[1], (slice(n_rows), distinct))
    return ReluSurrogate(rows, row_of, biases, coeffs)


def dense_integer_block(space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant and integer units as (distinct rows, row of each unit,
    biases), with the rows written one sign at a time into their own array."""
    row_of, biases, _, _ = _integer_block(space)
    nc, nd = space.n_continuous, space.n_integer
    var = np.concatenate([np.arange(nd), np.arange(1, nd)])
    diff = np.arange(nd, len(var))
    rows = np.zeros((1 + 2 * len(var), space.dim))
    for first, s in ((1, 1.0), (2, -1.0)):
        k = first + 2 * np.arange(len(var))
        rows[k, nc + var] = s
        rows[k[diff], nc + var[diff] - 1] = -s
    return rows, row_of, biases


def concatenated_build(space, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``build_surrogate``'s (rows, row_of, biases, coeffs), assembled by
    concatenation: the integer block, then the used directions in order of
    first use, then the zero padding to whole 4-row groups and copies of the
    last M mod 4 units' rows."""
    rows, row_of, biases = dense_integer_block(space)
    n_int_units = len(biases) - 1
    directions = sample_directions(space, rng)
    n_mixed = math.ceil(space.n_continuous * n_int_units / space.n_integer)
    picks, mixed_biases = _draw_mixed_units(space, directions, n_mixed, rng)
    order = list(dict.fromkeys(picks.tolist()))
    rank = np.empty(len(directions), dtype=np.intp)
    rank[order] = np.arange(len(order))
    row_of = np.concatenate([row_of, len(rows) + rank[picks]])
    rows = np.concatenate([rows, directions[order]])
    biases = np.concatenate([biases, mixed_biases])
    coeffs = np.concatenate([np.ones(1 + n_int_units), np.zeros(n_mixed)])
    m, tail = len(row_of), len(row_of) % 4
    pad = -len(rows) % 4
    grouped = np.concatenate([rows, np.zeros((pad, space.dim)), rows[row_of[m - tail :]]])
    row_of[m - tail :] = len(rows) + pad + np.arange(tail)
    return grouped, row_of, biases, coeffs


def scalar_model(units, coeffs) -> ReluSurrogate:
    """1-D model from (weight, bias) pairs."""
    weights, biases = zip(*units)
    return from_weights(np.array(weights, float)[:, None], biases, coeffs)


def value_at(model: ReluSurrogate, x) -> float:
    """The model's value at the point x, from its pre-activations there."""
    return model.value(model.preactivations(x))


def dense_weights(model: ReluSurrogate) -> np.ndarray:
    """The model's unit rows, one per unit: rows[row_of]."""
    return model.rows[model.row_of]


def covariance(fit) -> np.ndarray:
    """The fit's covariance (Phi^T Phi + lam I)^{-1} as a new array: I/lam - U^T U
    multiplied out before the fold, a copy of the dense matrix after it."""
    if fit._dense_cov is None:
        return fit._multiply_out()
    return fit._dense_cov.copy()


def trace_array(trace, field: str) -> np.ndarray:
    """One field of every record of a trace, in evaluation order."""
    return np.array([getattr(record, field) for record in trace.records])
