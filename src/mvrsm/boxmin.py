"""Box-constrained local descent on the surrogate.

A limited-memory quasi-Newton loop (two-loop recursion) with backtracking
line search; every trial point is clipped into the box, so iterates never
leave it, and only strictly decreasing steps are accepted, so the result
never exceeds the start value. The integer block is treated as relaxed
(continuous) here; the driver rounds afterwards.

The surrogate is piecewise linear, and iterates land exactly on kinks: every
point with integer-valued integer coordinates sits on the kink of half the
integer units at once. There the averaged subgradient can point uphill along
every coordinate it claims is downhill, so the line search judges trial steps
by the model's exact one-sided directional derivative, and when no
quasi-Newton direction is a true descent direction the loop falls back to the
steepest feasible coordinate move (the natural escape on a surface whose
kinks are mostly axis-aligned). Along one axis the model is piecewise linear
with known kinks, so that move's first trial step ends at the first kink past
which the exact slope is no longer negative (the one-dimensional breakpoint
scan of L-BFGS-B's generalized Cauchy point), or at the bound if none comes
first. Along an integer axis with integral neighbours the integer units' kinks
sit at integers. Backtracking from that step is only a fallback.

The loop runs tens of thousands of line-search trials per run on models of a
few hundred units, where call overhead dominates, so its scalar work is
written in forms that make fewer calls and give the same bits as the library
spellings: a norm is ``math.sqrt(v.dot(v))``, the ``dot`` and correctly
rounded square root that ``np.linalg.norm`` runs for a vector; a scalar is
checked with ``math.isfinite``; and each curvature pair carries the
rho = 1 / s.y and gamma = s.y / y.y formed once when it is stored. Points are
projected with the array method ``.clip(lower, upper)``, the same ufunc that
``np.clip`` calls, without its dispatch wrapper. A pair
``np.minimum(np.maximum(v, lower), upper)`` costs as much and gives the same
bits for the per-coordinate bound arrays used here, but only because both
ufuncs break signed-zero ties alike there (numpy 2.4): with scalar bounds
``np.clip`` keeps a -0.0 on a zero bound where the pair returns +0.0, and
points rounded by the driver carry -0.0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .space import MixedPoint, SearchSpace
from .surrogate import ReluSurrogate

__all__ = ["BoxMinResult", "minimize"]

MAX_ITERS = 20  # default iteration cap of one descent
MEMORY = 5  # curvature pairs kept
GRAD_TOL = 1e-8  # stop once the projected gradient is this short
STEP_TOL = 1e-12  # a step shorter than this ends the descent
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 30
CURVATURE_EPS = 1e-10


@dataclass(frozen=True, eq=False)
class BoxMinResult:
    point: MixedPoint
    iterations: int


def minimize(
    model: ReluSurrogate,
    space: SearchSpace,
    start: MixedPoint,
    max_iters: int = MAX_ITERS,
) -> BoxMinResult:
    """Descend the surrogate from ``start`` for at most ``max_iters`` iterations,
    staying inside the box."""
    lower, upper = space.lower, space.upper
    x = start.flatten().clip(lower, upper)
    f = model.value(x)
    g = model.gradient(x)
    _check_finite(f, g)

    # curvature pairs (s, y, rho, gamma), oldest first
    pairs: deque[tuple[np.ndarray, np.ndarray, float, float]] = deque(maxlen=MEMORY)
    iterations = 0

    for _ in range(max_iters):
        # projected gradient: the component of -g that can actually move x
        proj_grad = x - (x - g).clip(lower, upper)
        if math.sqrt(proj_grad.dot(proj_grad)) < GRAD_TOL:
            break
        iterations += 1

        step = None
        for direction, alpha in _candidates(model, x, g, pairs, lower, upper):
            step = _line_search(model, x, f, direction, alpha, lower, upper)
            if step is not None:
                break
        if step is None:
            break
        x_new, f_new, step_norm = step

        g_new = model.gradient(x_new)
        _check_finite(f_new, g_new)
        s, y = x_new - x, g_new - g
        sy, yy = s.dot(y), y.dot(y)
        if sy > CURVATURE_EPS * math.sqrt(s.dot(s)) * math.sqrt(yy):
            pairs.append((s, y, 1.0 / sy, sy / yy))
        x, f, g = x_new, f_new, g_new
        if step_norm < STEP_TOL:
            break

    return BoxMinResult(point=space.unflatten(x), iterations=iterations)


def _candidates(model, x, g, pairs, lower, upper):
    """Trial directions with initial step sizes, best first.

    Quasi-Newton (then steepest descent) directions are screened by their
    exact one-sided slope; when neither truly descends, the steepest feasible
    coordinate move is offered, sized to the first kink along it where the
    exact slope turns >= 0, or to its bound if no kink before it does.
    """
    direction = _two_loop(g, pairs)
    norm_d = math.sqrt(direction.dot(direction))
    if norm_d > 0.0 and model.directional_derivative(x, direction) < 0.0:
        # unit trial step once curvature pairs scale the direction; before
        # that, a unit-length steepest descent step
        yield direction, 1.0 if pairs else 1.0 / norm_d
    if pairs:
        norm_g = math.sqrt(g.dot(g))
        if norm_g > 0.0 and model.directional_derivative(x, -g) < 0.0:
            yield -g, 1.0 / norm_g

    ascent, descent = model.axis_derivatives(x)
    ascent = np.where(x < upper, ascent, np.inf)
    descent = np.where(x > lower, descent, np.inf)
    slopes = np.minimum(ascent, descent)
    i = int(slopes.argmin())
    if -math.inf < slopes[i] < 0.0:
        sign = 1.0 if ascent[i] <= descent[i] else -1.0
        coord = np.zeros_like(x)
        coord[i] = sign
        room = float((upper[i] - x[i]) if sign > 0.0 else (x[i] - lower[i]))
        yield coord, model.first_uphill_kink(x, i, sign, float(slopes[i]), room)


def _line_search(model, x, f, direction, alpha, lower, upper):
    """Backtrack until a trial point passes sufficient decrease, or give up.

    The decrease test compares against the exact one-sided slope along the
    clipped step, so a step that the averaged gradient calls downhill but the
    model's kink structure makes uphill is rejected at face value. For any
    slope below zero, f + c1 * slope rounds to at most f, so a trial whose
    value rises above f fails the test whatever its slope, and the slope is
    formed only for trials that do not rise.
    """
    for _ in range(MAX_BACKTRACKS):
        x_new = (x + alpha * direction).clip(lower, upper)
        step = x_new - x
        step_norm = math.sqrt(step.dot(step))
        if step_norm < STEP_TOL:
            return None
        f_new = model.value(x_new)
        if not math.isfinite(f_new):
            raise NonFiniteError("surrogate value is not finite")
        if f_new <= f:
            predicted = model.directional_derivative(x, step)
            if predicted < 0.0 and f_new <= f + ARMIJO_C1 * predicted:
                return x_new, f_new, step_norm
        alpha *= 0.5
    return None


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """Implicit product -H g from the stored curvature pairs."""
    q = g.copy()
    if not pairs:
        return -q
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * s.dot(q)
        q -= a * y
        alphas.append(a)
    q *= pairs[-1][3]  # gamma of the newest pair
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        b = rho * y.dot(q)
        q += (a - b) * s
    return -q


def _check_finite(f: float, g: np.ndarray) -> None:
    if not math.isfinite(f):
        raise NonFiniteError("surrogate value is not finite")
    if not np.isfinite(g).all():
        raise NonFiniteError("surrogate gradient is not finite")
