"""Tests for the box-constrained descent loop."""

from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrsm import boxmin
from mvrsm.boxmin import (
    ARMIJO_C1,
    CURVATURE_EPS,
    MAX_BACKTRACKS,
    BoxMinResult,
    _line_search,
    minimize,
)
from mvrsm.driver import OptimizerConfig
from mvrsm.errors import NonFiniteError
from mvrsm.objectives import make_benchmark
from mvrsm.space import MixedPoint, SearchSpace, VariableSpec
from mvrsm.surrogate import build_surrogate
from handbuilt import dense_weights, from_weights, scalar_model


def golden_section(f, lo, hi, tol=1e-10):
    """1-D oracle minimizer for unimodal functions."""
    inv_phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    while abs(b - a) > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    return (a + b) / 2


def line_space(lo=0.0, up=3.0):
    return SearchSpace((VariableSpec("integer", lo, up),))


def start(space, *coords):
    return space.unflatten(np.array(coords, dtype=float))


def test_config_validation():
    # the descent's one setting is its cap, set through the run's config
    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(budget=30, max_iters=cap)


def test_zero_model_returns_start_without_iterating():
    space = line_space()
    model = scalar_model([(1, -1)], [0.0])
    res = minimize(model, space, start(space, 2.5))
    assert res.point.xd[0] == 2.5
    assert res.iterations == 0
    assert model.value(res.point.flatten()) == 0.0


def test_single_relu_descends_to_its_flat_region():
    # max(0, x-1) on [0, 3]: everything at or left of the kink attains 0
    space = line_space()
    model = scalar_model([(1, -1)], [1.0])
    res = minimize(model, space, start(space, 2.5))
    reached = model.value(res.point.flatten())
    assert reached <= model.value(np.array([2.5]))
    assert reached == 0.0
    assert res.point.xd[0] <= 1.0 + 1e-9


def test_v_shape_reaches_the_kink():
    # |x-1| = max(0, x-1) + max(0, 1-x); golden-section confirms the minimizer
    space = line_space()
    model = scalar_model([(1, -1), (-1, 1)], [1.0, 1.0])
    oracle = golden_section(lambda t: model.value(np.array([t])), 0.0, 3.0)
    assert oracle == pytest.approx(1.0, abs=1e-8)
    res = minimize(model, space, start(space, 0.2), max_iters=20)
    assert abs(res.point.xd[0] - oracle) <= 1e-3


def test_never_increases_value_on_random_models():
    space = SearchSpace(
        (
            VariableSpec("continuous", -1, 1),
            VariableSpec("integer", 0, 2),
            VariableSpec("integer", 0, 2),
        )
    )
    rng = np.random.default_rng(0)
    for _ in range(200):
        model = build_surrogate(space, rng)
        model.coeffs[:] = rng.uniform(-1, 1, model.n_units)
        p = space.uniform_sample(rng)
        res = minimize(model, space, p)
        assert model.value(res.point.flatten()) <= model.value(p.flatten()) + 1e-12
        assert space.contains(res.point)
        assert res.iterations <= 20


def test_out_of_box_start_is_clipped_first():
    space = line_space()
    model = scalar_model([(1, -1)], [1.0])
    res = minimize(model, space, start(space, 50.0))
    assert res.point.xd[0] <= 3.0
    assert model.value(res.point.flatten()) == 0.0


def test_iteration_budget_respected():
    space = line_space(0, 100)
    model = scalar_model([(1, -1), (-1, 1)], [1.0, 1.0])
    res = minimize(model, space, start(space, 93.0), max_iters=3)
    assert res.iterations <= 3


def test_escapes_kink_point_where_averaged_gradient_misleads():
    # Two opposed units kinked at x0=1 with uneven coefficients make the
    # averaged gradient claim descent along x0 although both senses of x0
    # rise; the only true descent is raising x1. A descent loop trusting the
    # averaged slope stalls at (1, 0) forever; the kink-aware loop must find
    # the coordinate move and reach the model minimum.
    space = SearchSpace(
        (VariableSpec("integer", 0, 2), VariableSpec("integer", 0, 2))
    )
    model = from_weights(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([-1.0, 1.0, 1.0]),
        np.array([5.0, 6.0, 0.5]),
    )
    x0 = np.array([1.0, 0.0])
    g = model.gradient(x0)
    # averaged gradient: x0 slope 0.5*5 - 0.5*6 = -0.5, so -g walks x0 upward
    assert g[0] == -0.5
    # but the exact slope along that walk is uphill
    assert model.directional_derivative(x0, -g) > 0.0
    res = minimize(model, space, space.unflatten(x0))
    assert model.value(res.point.flatten()) == 0.0
    assert res.point.xd[1] >= 1.0  # escaped by moving the second coordinate


def test_descends_from_integral_points_of_built_surrogates():
    # integral starts put half the integer units at their kinks; descent must
    # still make progress whenever some coordinate move is downhill
    space = SearchSpace(
        (
            VariableSpec("continuous", -1, 1),
            VariableSpec("integer", -2, 2),
            VariableSpec("integer", -2, 2),
        )
    )
    rng = np.random.default_rng(42)
    stuck = 0
    for _ in range(50):
        model = build_surrogate(space, rng)
        model.coeffs[:] = rng.uniform(-1, 1, model.n_units)
        p = space.uniform_sample(rng)
        up, down = model.axis_derivatives(p.flatten())
        movable = np.concatenate(
            [up[p.flatten() < space.upper], down[p.flatten() > space.lower]]
        )
        res = minimize(model, space, p)
        if movable.size and movable.min() < -1e-9:
            if not model.value(res.point.flatten()) < model.value(p.flatten()):
                stuck += 1
    assert stuck == 0


class CountingProducts(np.ndarray):
    """Unit rows that log the bytes of every right operand of ``rows @ v``.

    Only the array given a ``log`` counts; its transpose and slices do not.
    """

    def __matmul__(self, other):
        log = getattr(self, "log", None)
        if log is not None:
            log.append(np.asarray(other).tobytes())
        return super().__matmul__(other)


def test_descent_forms_each_points_preactivations_once():
    space, objective = make_benchmark("ackley53", rng=np.random.default_rng([0, 1]))
    rng = np.random.default_rng(0)
    model = build_surrogate(space, rng)
    samples = [space.uniform_sample(rng) for _ in range(30)]
    for p in samples:
        model.rls.update(model.features(p.flatten()), objective(p))
    best = min(samples, key=lambda p: model.value(p.flatten()))

    # every product is formed on the distinct unit rows
    rows = model.rows.view(CountingProducts)
    rows.log = []
    model.rows = rows
    evaluated = set()
    calls = []
    for name in ("features", "value", "gradient", "directional_derivative", "axis_derivatives"):
        method = getattr(model, name)

        def recording(x, *args, _method=method, _name=name):
            evaluated.add(np.asarray(x, dtype=float).tobytes())
            calls.append(_name)
            return _method(x, *args)

        setattr(model, name, recording)

    res = minimize(model, space, best)
    assert res.iterations > 5
    directional = calls.count("directional_derivative")
    # a line-search trial rejected on its value is followed by the next trial
    # (``value`` calls ``features`` itself)
    descent = [name for name in calls if name != "features"]
    rejected_on_value = sum(a == b == "value" for a, b in zip(descent, descent[1:]))
    assert rejected_on_value > 0
    at_points = [v for v in rows.log if v in evaluated]
    # rows . x once per distinct point, plus one rows . d per directional
    # derivative formed; a trial rejected on its value forms no rows . d
    assert len(at_points) == len(evaluated) and set(at_points) == evaluated
    assert len(rows.log) == len(evaluated) + directional
    assert calls.count("gradient") > 0


def reference_line_search(model, x, f, direction, alpha, lower, upper, step_tol):
    """The backtracking rule that forms the exact slope of every trial."""
    for _ in range(MAX_BACKTRACKS):
        x_new = np.clip(x + alpha * direction, lower, upper)
        step = x_new - x
        step_norm = float(np.linalg.norm(step))
        if step_norm < step_tol:
            return None
        f_new = model.value(x_new)
        if not np.isfinite(f_new):
            raise NonFiniteError("surrogate value is not finite")
        predicted = model.directional_derivative(x, step)
        if predicted < 0.0 and f_new <= f + ARMIJO_C1 * predicted:
            return x_new, f_new, step_norm
        alpha *= 0.5
    return None


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=1, max_value=3),
    units=st.integers(min_value=1, max_value=8),
    integral=st.booleans(),
    level=st.sampled_from([0.0, 1e8]),
    alpha=st.floats(min_value=1e-9, max_value=8.0),
)
def test_line_search_matches_the_rule_that_forms_every_slope(
    seed, dim, units, integral, level, alpha
):
    # small weights and integral biases put kinks on integral points, where
    # one-sided slopes and flat pieces make ties between f_new and f common;
    # a high constant level makes short downhill steps round to f_new == f
    rng = np.random.default_rng(seed)
    weights = rng.choice([-1.0, -0.5, 0.0, 0.3, 0.5, 1.0], size=(units, dim))
    biases = rng.integers(-2, 3, size=units).astype(float)
    coeffs = rng.uniform(-1.0, 1.0, units)
    model = from_weights(
        np.vstack([np.zeros(dim), weights]),
        np.concatenate([[1.0], biases]),
        np.concatenate([[level], coeffs]),
    )
    lower, upper = np.full(dim, -2.0), np.full(dim, 2.0)
    x = rng.integers(-2, 3, size=dim).astype(float) if integral else rng.uniform(-2, 2, dim)
    direction = rng.normal(size=dim)
    f = model.value(x)
    args = (x, f, direction, alpha, lower, upper)
    got = _line_search(model, *args)
    expected = reference_line_search(model, *args, boxmin.STEP_TOL)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1:] == expected[1:]


def reference_minimize(model, space, start, kink_steps=None):
    """The descent loop in its library spellings, as (point, value, iterations).

    ``np.clip`` and ``np.linalg.norm`` throughout, curvature pairs kept as
    (s, y), and rho = 1 / y.s and gamma = s.y / y.y of the newest pair formed
    anew on every use. Trials follow ``reference_line_search``, which accepts
    the same steps as the descent's own line search. It runs to the default
    cap. The memory and the tolerances are read from ``boxmin`` at each call,
    as ``minimize`` reads them, so a test that patches one patches both loops.
    Each axis move that stops at a kink before its bound appends its step to
    ``kink_steps``, when given.
    """
    lower, upper = space.lower, space.upper
    x = np.clip(start.flatten(), lower, upper)
    f = model.value(x)
    g = model.gradient(x)
    pairs = deque(maxlen=boxmin.MEMORY)
    iterations = 0
    for _ in range(boxmin.MAX_ITERS):
        proj_grad = x - np.clip(x - g, lower, upper)
        if np.linalg.norm(proj_grad) < boxmin.GRAD_TOL:
            break
        iterations += 1
        step = None
        candidates = reference_candidates(model, x, g, pairs, lower, upper, kink_steps)
        for direction, alpha in candidates:
            step = reference_line_search(
                model, x, f, direction, alpha, lower, upper, boxmin.STEP_TOL
            )
            if step is not None:
                break
        if step is None:
            break
        x_new, f_new, step_norm = step
        g_new = model.gradient(x_new)
        s, y = x_new - x, g_new - g
        if float(s @ y) > CURVATURE_EPS * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y))
        x, f, g = x_new, f_new, g_new
        if step_norm < boxmin.STEP_TOL:
            break
    return x, f, iterations


def reference_candidates(model, x, g, pairs, lower, upper, kink_steps=None):
    direction = reference_two_loop(g, pairs)
    norm_d = float(np.linalg.norm(direction))
    if norm_d > 0.0 and model.directional_derivative(x, direction) < 0.0:
        yield direction, 1.0 if pairs else 1.0 / norm_d
    if pairs:
        norm_g = float(np.linalg.norm(g))
        if norm_g > 0.0 and model.directional_derivative(x, -g) < 0.0:
            yield -g, 1.0 / norm_g
    ascent, descent = model.axis_derivatives(x)
    ascent = np.where(x < upper, ascent, np.inf)
    descent = np.where(x > lower, descent, np.inf)
    slopes = np.minimum(ascent, descent)
    i = int(np.argmin(slopes))
    if np.isfinite(slopes[i]) and slopes[i] < 0.0:
        sign = 1.0 if ascent[i] <= descent[i] else -1.0
        coord = np.zeros_like(x)
        coord[i] = sign
        room = float((upper[i] - x[i]) if sign > 0.0 else (x[i] - lower[i]))
        step = reference_first_uphill_kink(model, x, i, sign, float(slopes[i]), room)
        if kink_steps is not None and step < room:
            kink_steps.append(step)
        yield coord, step


def reference_first_uphill_kink(model, x, i, sign, slope, room):
    """The axis move's first trial step, one unit at a time.

    Every unit whose kink lies strictly between 0 and ``room`` along
    ``sign`` * e_i is a (t, unit, slope change) triple; sorted by t, ties in
    unit order, their changes are summed in that order, and the step is the
    first t past whose last unit ``slope`` plus the sum so far is >= 0.
    """
    z = model._preactivation(x)
    weights = dense_weights(model)
    kinks = []
    for k in range(model.n_units):
        rate = sign * weights[k, i]
        if rate != 0.0:
            t = -z[k] / rate
            if 0.0 < t < room:
                kinks.append((t, k, model.coeffs[k] * abs(rate)))
    kinks.sort()
    total = 0.0
    for n, (t, _, change) in enumerate(kinks):
        total += change
        last_at_t = n + 1 == len(kinks) or kinks[n + 1][0] != t
        if last_at_t and slope + total >= 0.0:
            return float(t)
    return room


def reference_two_loop(g, pairs):
    q = g.copy()
    if not pairs:
        return -q
    alphas = []
    for s, y in reversed(pairs):
        rho = 1.0 / (y @ s)
        a = rho * (s @ q)
        q -= a * y
        alphas.append((a, rho, s, y))
    s_last, y_last = pairs[-1]
    q *= (s_last @ y_last) / (y_last @ y_last)
    for a, rho, s, y in reversed(alphas):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def assert_descent_matches_reference(model, space, start, kink_steps=None):
    res = minimize(model, space, start)
    x, f, iterations = reference_minimize(model, space, start, kink_steps)
    assert res.point.flatten().tobytes() == x.tobytes()
    assert (model.value(res.point.flatten()), res.iterations) == (f, iterations)
    return res


BOUNDS = ((-2.0, 2.0), (0.0, 2.0), (-2.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=1, max_value=4),
    units=st.integers(min_value=1, max_value=8),
    starts=st.sampled_from(["integral", "random", "negative zero"]),
    memory=st.integers(min_value=1, max_value=5),
)
def test_descent_matches_the_reference_loop_bit_for_bit(seed, dim, units, starts, memory):
    # kinks on integral points, as in the line-search test; bounds at zero let
    # a start hold -0.0 exactly on a bound, as rounded points do
    rng = np.random.default_rng(seed)
    kinds = [*rng.choice(["continuous", "integer"], size=dim - 1), "integer"]
    space = SearchSpace(
        tuple(VariableSpec(str(kind), *BOUNDS[rng.integers(3)]) for kind in kinds)
    )
    weights = rng.choice([-1.0, -0.5, 0.0, 0.3, 0.5, 1.0], size=(units, dim))
    biases = rng.integers(-2, 3, size=units).astype(float)
    model = from_weights(
        np.vstack([np.zeros(dim), weights]),
        np.concatenate([[1.0], biases]),
        np.concatenate([[rng.uniform(-1.0, 1.0)], rng.uniform(-1.0, 1.0, units)]),
    )
    lower, upper = space.lower, space.upper
    if starts == "random":
        x = rng.uniform(lower, upper)
    else:
        x = np.floor(rng.uniform(lower, upper + 1.0)).clip(lower, upper)
    if starts == "negative zero":
        x[x == 0.0] = -0.0
    with patch.object(boxmin, "MEMORY", memory):
        assert_descent_matches_reference(model, space, space.unflatten(x))


@pytest.mark.parametrize("name", ["rosenbrock10", "ackley53", "rosenbrock238"])
def test_benchmark_descents_match_the_reference_loop_bit_for_bit(name):
    # after 100 observations ackley53's descents make axis moves along its
    # continuous coordinates that stop at a mixed unit's kink before the bound
    space, objective = make_benchmark(name, rng=np.random.default_rng([0, 1]))
    rng = np.random.default_rng(5)
    model = build_surrogate(space, rng)
    for _ in range(100):
        p = space.uniform_sample(rng)
        model.rls.update(model.features(p.flatten()), objective(p))
    iterations, kink_steps = 0, []
    for _ in range(4):
        iterations += assert_descent_matches_reference(
            model, space, space.uniform_sample(rng), kink_steps
        ).iterations
    assert iterations > 4
    if name == "ackley53":
        assert kink_steps


def test_non_finite_model_raises():
    space = line_space()
    model = scalar_model([(1, -1)], [np.inf])
    with pytest.raises(NonFiniteError):
        minimize(model, space, start(space, 2.0))


def test_result_type_fields():
    space = line_space()
    model = scalar_model([(1, -1)], [1.0])
    res = minimize(model, space, start(space, 2.0))
    assert isinstance(res, BoxMinResult)
    assert isinstance(res.point, MixedPoint)
