"""Exhaustive vertex enumeration of small surrogates, for the integrality checks.

A vertex is the simultaneous zero of dim units whose weight vectors are
linearly independent. The surrogate's construction pins every such vertex
to integer values in the integer block; ``enumerate_vertices`` lists them
so the tests can check that claim on models small enough to enumerate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mvrsm.errors import DimensionMismatchError, MvrsmError
from mvrsm.space import MixedPoint, SearchSpace
from mvrsm.surrogate import ReluSurrogate
from handbuilt import dense_weights


class TooLargeError(MvrsmError, ValueError):
    """Exhaustive vertex enumeration would exceed the combinatorial budget."""


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
    Raises TooLargeError when the subset count exceeds ``max_subsets``, and
    DimensionMismatchError when the mixed rows span more than n_continuous
    dimensions.
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
    weights, biases = dense_weights(model), model.biases
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
