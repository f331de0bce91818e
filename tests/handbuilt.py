"""Hand-built surrogates, and the dense arrays the tests check models, fits
and traces against.

The package builds a model one way, ``build_surrogate``. ``from_weights``
builds one from dense unit rows, for tests that need a model small enough
to reason about, and lays its rows out as the builder does: a hand-built
copy of a built model has the same layout and gives the same bits.
"""

from __future__ import annotations

import numpy as np

from mvrsm.errors import DimensionMismatchError
from mvrsm.surrogate import ReluSurrogate, _grouped_rows


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
    return ReluSurrogate(*_grouped_rows(*_distinct_rows(weights)), biases, coeffs)


def scalar_model(units, coeffs) -> ReluSurrogate:
    """1-D model from (weight, bias) pairs."""
    weights, biases = zip(*units)
    return from_weights(np.array(weights, float)[:, None], biases, coeffs)


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
