"""Tests for the ReLU surrogate: basis construction, evaluation, vertices."""

import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import one_blas_thread
from mvrsm.errors import DimensionMismatchError
from mvrsm.objectives import make_benchmark
from mvrsm.space import SearchSpace, VariableSpec
from mvrsm.surrogate import (
    ReluSurrogate,
    _draw_mixed_units,
    _index_then_double,
    _integer_block,
    build_surrogate,
    corner_points,
    sample_directions,
)
from handbuilt import concatenated_build, dense_weights, from_weights, scalar_model, value_at
from vertices import TooLargeError, enumerate_vertices


BENCHMARKS = ["rosenbrock10", "ackley53", "rosenbrock238"]


def int_space(*bounds):
    return SearchSpace(tuple(VariableSpec("integer", lo, up) for lo, up in bounds))


def one_cont_two_int():
    """d_c=1 on [-1, 1], two integers on {0..2}."""
    return SearchSpace(
        (
            VariableSpec("continuous", -1.0, 1.0),
            VariableSpec("integer", 0, 2),
            VariableSpec("integer", 0, 2),
        )
    )


def three_cont_one_int():
    """Three continuous variables on [-1, 2], so three directions, and one integer on {0..2}."""
    return SearchSpace(
        tuple(VariableSpec("continuous", -1.0, 2.0) for _ in range(3))
        + (VariableSpec("integer", 0, 2),)
    )


# every bit generator numpy ships: all but MT19937 buffer the high half of a
# raw word for the next 32-bit draw
GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64, np.random.MT19937
]


def dense_integer_units(space):
    """The constant and integer units as dense (weights, biases)."""
    row_of, biases, n_rows, (at, values) = _integer_block(space)
    rows = np.zeros((n_rows, space.dim))
    rows[at] = values
    return rows[row_of], biases


# -- integer basis ----------------------------------------------------------


def test_single_binary_variable_basis():
    weights, biases = dense_integer_units(int_space((0, 1)))
    assert weights.shape == (5, 1) and biases.shape == (5,)
    # the constant unit comes first
    assert weights[0].tolist() == [0.0] and biases[0] == 1.0
    # variable, then threshold, then sign: +(x-0), -(x-0), +(x-1), -(x-1)
    got = list(zip(weights[1:].tolist(), biases[1:].tolist()))
    assert got == [([1.0], -0.0), ([-1.0], 0.0), ([1.0], -1.0), ([-1.0], 1.0)]


def test_two_variable_basis_count():
    # 1 constant + 2 * (2*3 singles) + 2*(3+3-1) pair units = 23
    weights, biases = dense_integer_units(int_space((0, 2), (0, 2)))
    assert weights.shape == (23, 2) and biases.shape == (23,)
    assert np.all(np.any(weights[1:] != 0.0, axis=1))


def test_pair_units_span_cross_differences():
    # thresholds for the pair block cover l2-u1 .. u2-l1
    weights, biases = dense_integer_units(int_space((0, 1), (3, 5)))
    pair = np.count_nonzero(weights, axis=1) == 2
    rising = sorted(set(biases[pair & (weights[:, 1] == 1.0)].tolist()))
    # z = x2 - x1 - a for a in {3-1 .. 5-0} = {2..5}, stored bias is -a
    assert rising == [-5.0, -4.0, -3.0, -2.0]
    for w in weights[pair]:
        assert sorted(w[np.nonzero(w)].tolist()) == [-1.0, 1.0]


def test_integer_units_have_zero_continuous_weights_and_integer_parameters():
    space = one_cont_two_int()
    weights, biases = dense_integer_units(space)
    assert np.all(weights[:, : space.n_continuous] == 0.0)
    assert np.all(weights == np.round(weights))
    assert np.all(biases == np.round(biases))


def test_integer_units_are_integral_on_integral_points():
    space = int_space((-2, 2), (-2, 2))
    rng = np.random.default_rng(0)
    weights, biases = dense_integer_units(space)
    for _ in range(50):
        x = space.uniform_sample(rng).flatten()
        for w, b in zip(weights, biases):
            z = w @ x + b
            assert z == np.floor(z)


# -- directions and mixed units ----------------------------------------------


def test_direction_set_shape_and_support():
    space = SearchSpace(
        tuple(VariableSpec("continuous", -1, 1) for _ in range(3))
        + tuple(VariableSpec("integer", 0, 1) for _ in range(50))
    )
    dirs = sample_directions(space, np.random.default_rng(0))
    assert dirs.shape == (3, 53)
    assert np.all(np.abs(dirs) <= 1.0 / 53)


def test_no_continuous_variables_no_directions():
    dirs = sample_directions(int_space((0, 3)), np.random.default_rng(0))
    assert dirs.shape == (0, 1)
    picks, biases = _draw_mixed_units(int_space((0, 3)), dirs, 0, np.random.default_rng(0))
    assert dirs[picks].shape == (0, 1) and biases.shape == (0,)


def test_corner_points_sign_rule():
    space = int_space((0, 3), (0, 3))
    q1, q2 = corner_points(space, np.array([0.1, -0.2]))
    assert q1.tolist() == [0.0, 3.0]
    assert q2.tolist() == [3.0, 0.0]
    w = np.array([0.1, -0.2])
    assert w @ q1 == pytest.approx(-0.6)
    assert w @ q2 == pytest.approx(0.3)


def test_corner_points_zero_weight_tie_rule():
    space = int_space((0, 3), (1, 2))
    q1, q2 = corner_points(space, np.zeros(2))
    assert q1.tolist() == space.lower.tolist()
    assert q2.tolist() == space.upper.tolist()


def test_corner_points_bound_the_linear_form():
    space = one_cont_two_int()
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.normal(size=3)
        q1, q2 = corner_points(space, w)
        x = space.uniform_sample(rng).flatten()
        assert w @ q1 <= w @ x + 1e-12
        assert w @ x <= w @ q2 + 1e-12


def test_mixed_unit_kinks_cross_the_box():
    space = one_cont_two_int()
    rng = np.random.default_rng(2)
    dirs = sample_directions(space, rng)
    picks, biases = _draw_mixed_units(space, dirs, 200, rng)
    for w, b in zip(dirs[picks], biases):
        q1, q2 = corner_points(space, w)
        assert w @ q1 + b <= 1e-12
        assert w @ q2 + b >= -1e-12


def test_mixed_unit_weights_come_from_the_direction_set():
    # build_surrogate draws the directions first; units 23.. are the mixed ones
    space = one_cont_two_int()
    dirs = sample_directions(space, np.random.default_rng(2))
    model = build_surrogate(space, np.random.default_rng(2))
    for w in dense_weights(model)[23:]:
        assert any(np.array_equal(w, d) for d in dirs)


@pytest.mark.parametrize("bit_generator", GENERATORS)
def test_mixed_units_draw_one_index_then_one_bias_per_unit(bit_generator):
    # the random stream layout is part of every seeded trace: per unit, one
    # direction index and then one bias, in unit order (several directions,
    # since drawing an index among one consumes nothing from the stream)
    space = three_cont_one_int()
    dirs = sample_directions(space, np.random.default_rng(3))
    assert len(dirs) == 3
    rng, ref = (np.random.Generator(bit_generator(4)) for _ in range(2))
    picks, biases = _draw_mixed_units(space, dirs, 40, rng)
    for w, b in zip(dirs[picks], biases):
        d = dirs[ref.integers(len(dirs))]
        q1, q2 = corner_points(space, d)
        assert w.tobytes() == d.tobytes()
        assert b == ref.uniform(-float(d @ q2), -float(d @ q1))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("name", ["rosenbrock10", "ackley53", "rosenbrock238"])
def test_mixed_units_at_benchmark_size_equal_the_scalar_draws(name):
    # the direction ranges are formed for all directions at once; each must
    # be the dot product w @ corner to the bit, at 10, 53 and 238 coordinates
    space, _ = make_benchmark(name)
    dirs = sample_directions(space, np.random.default_rng(6))
    picks, biases = _draw_mixed_units(space, dirs, 300, np.random.default_rng(7))
    ref = np.random.default_rng(7)
    for pick, b in zip(picks, biases):
        assert pick == ref.integers(len(dirs))
        q1, q2 = corner_points(space, dirs[pick])
        assert b == ref.uniform(-float(dirs[pick] @ q2), -float(dirs[pick] @ q1))


def test_corner_points_of_a_stack_are_the_corners_of_each_row():
    space, _ = make_benchmark("rosenbrock10")
    weights = sample_directions(space, np.random.default_rng(8))
    weights[0, :3] = 0.0
    min_corners, max_corners = corner_points(space, weights)
    nonneg = weights >= 0.0
    assert min_corners.tobytes() == np.where(nonneg, space.lower, space.upper).tobytes()
    assert max_corners.tobytes() == np.where(nonneg, space.upper, space.lower).tobytes()
    for w, q1, q2 in zip(weights, min_corners, max_corners):
        want1, want2 = corner_points(space, w)
        assert q1.tobytes() == want1.tobytes() and q2.tobytes() == want2.tobytes()


# -- the index and bias stream, read from raw words or by the scalar calls -------


def scalar_index_then_double(rng, n, count):
    """The pairs one scalar call each gives: what the replay must reproduce."""
    picks, doubles = np.empty(count, dtype=np.int64), np.empty(count)
    for k in range(count):
        picks[k] = rng.integers(n)
        doubles[k] = rng.random()
    return picks, doubles


class CountingProxy:
    """Forwards to a generator and its bit generator, counting the attribute
    reads and writes (each method call is one read) by name."""

    def __init__(self, target, calls=None):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "calls", collections.Counter() if calls is None else calls)

    def __getattr__(self, name):
        self.calls[name] += 1
        value = getattr(self._target, name)
        return CountingProxy(value, self.calls) if name == "bit_generator" else value

    def __setattr__(self, name, value):
        self.calls[name] += 1
        setattr(self._target, name, value)


@settings(max_examples=300, deadline=None)
@given(
    bit_generator=st.sampled_from(GENERATORS),
    n=st.sampled_from([1, 2, 3, 119, 3 * 2**30, 2**32 - 1]),
    count=st.integers(0, 200),
    buffered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_replayed_pairs_equal_the_scalar_calls(bit_generator, n, count, buffered, seed):
    replayed, scalar = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if buffered:  # leaves the high half of a word in the 32-bit buffer
        replayed.integers(5)
        scalar.integers(5)
    picks, doubles = _index_then_double(replayed, n, count)
    want_picks, want_doubles = scalar_index_then_double(scalar, n, count)
    assert picks.dtype == want_picks.dtype and picks.tobytes() == want_picks.tobytes()
    assert doubles.tobytes() == want_doubles.tobytes()
    if bit_generator is np.random.PCG64:
        assert replayed.bit_generator.state == scalar.bit_generator.state
    assert replayed.integers(1000) == scalar.integers(1000)
    assert replayed.random() == scalar.random()


@pytest.mark.parametrize("bit_generator", GENERATORS)
@pytest.mark.parametrize("buffered", [False, True])
def test_rejected_draws_are_redone_with_the_scalar_calls(bit_generator, buffered):
    # integers(3 * 2**30) draws x again when (3 * 2**30 * x) mod 2**32 < 2**30,
    # a quarter of the time, so some of the 200 units draw again and every
    # pair comes from the scalar calls
    replayed = CountingProxy(np.random.Generator(bit_generator(11)))
    scalar = np.random.Generator(bit_generator(11))
    if buffered:
        replayed.integers(5)
        scalar.integers(5)
    replayed.calls.clear()
    picks, doubles = _index_then_double(replayed, 3 * 2**30, 200)
    want_picks, want_doubles = scalar_index_then_double(scalar, 3 * 2**30, 200)
    assert picks.tobytes() == want_picks.tobytes()
    assert doubles.tobytes() == want_doubles.tobytes()
    assert replayed.calls["integers"] == replayed.calls["random"] == 200
    assert replayed.integers(1000) == scalar.integers(1000)


@pytest.mark.parametrize("n", [1, 3])
def test_no_pairs_draw_nothing(n):
    rng = np.random.default_rng(0)
    rng.integers(5)
    before = rng.bit_generator.state
    picks, doubles = _index_then_double(rng, n, 0)
    assert picks.shape == doubles.shape == (0,)
    assert picks.dtype == np.int64 and doubles.dtype == float
    assert rng.bit_generator.state == before


def test_building_the_largest_model_makes_no_generator_call_per_unit():
    # rosenbrock238 has 3314 mixed units; their draws are one replay
    space, _ = make_benchmark("rosenbrock238")
    rng, plain = CountingProxy(np.random.default_rng(0)), np.random.default_rng(0)
    model, want = build_surrogate(space, rng), build_surrogate(space, plain)
    assert np.count_nonzero(model.coeffs == 0.0) == 3314
    assert rng.calls["uniform"] == 1  # the directions
    assert rng.calls["integers"] == rng.calls["random"] == 0
    assert sum(rng.calls.values()) <= 10, rng.calls
    assert model.biases.tobytes() == want.biases.tobytes()
    assert model.row_of.tobytes() == want.row_of.tobytes()
    assert rng._target.bit_generator.state == plain.bit_generator.state


def test_a_generator_without_a_32_bit_buffer_builds_from_the_scalar_calls():
    # MT19937 has no 32-bit buffer: the directions, then one scalar index
    # and one scalar bias per mixed unit (the units with coefficient 0)
    for space in (three_cont_one_int(), one_cont_two_int(), int_space((0, 2), (0, 2))):
        rng, ref = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
        model = build_surrogate(space, rng)
        dirs = sample_directions(space, ref)
        mixed = model.coeffs == 0.0
        for w, b in zip(dense_weights(model)[mixed], model.biases[mixed]):
            d = dirs[ref.integers(len(dirs))]
            q1, q2 = corner_points(space, d)
            assert w.tobytes() == d.tobytes()
            assert b == ref.uniform(-float(d @ q2), -float(d @ q1))
        assert rng.integers(1000) == ref.integers(1000) and rng.random() == ref.random()


def test_a_space_with_no_continuous_variable_draws_nothing():
    rng = np.random.default_rng(0)
    rng.integers(5)
    before = rng.bit_generator.state
    build_surrogate(int_space((0, 2), (0, 2)), rng)
    assert rng.bit_generator.state == before


# -- assembled model ----------------------------------------------------------


def test_build_surrogate_counts_and_initial_coefficients():
    # C_int = 22 for two {0..2} integers; D_c = ceil(1*22/2) = 11; M = 34
    space = one_cont_two_int()
    model = build_surrogate(space, np.random.default_rng(0))
    assert model.n_units == 34
    weights = dense_weights(model)
    assert weights.shape == (34, 3) and model.biases.shape == (34,)
    # constant row, then 22 integer rows (zero continuous block), then 11 mixed
    assert np.all(weights[0] == 0.0) and model.biases[0] == 1.0
    assert np.all(weights[1:23, :1] == 0.0)
    assert np.all(weights[23:, :1] != 0.0)
    assert np.all(model.coeffs[:23] == 1.0)
    assert np.all(model.coeffs[23:] == 0.0)


def test_build_surrogate_no_continuous_block():
    space = int_space((0, 2), (0, 2))
    model = build_surrogate(space, np.random.default_rng(0))
    assert model.n_units == 23
    weights, biases = dense_integer_units(space)
    assert np.array_equal(dense_weights(model), weights)
    assert np.array_equal(model.biases, biases)


def test_coefficients_alias_the_fit_state():
    model = build_surrogate(one_cont_two_int(), np.random.default_rng(0))
    assert model.coeffs is model.rls.coeffs
    z = model.preactivations(np.zeros(3))
    model.rls.update(model.features(z), 5.0)
    assert model.value(z) != 0.0


# -- evaluation ---------------------------------------------------------------


def test_value_hand_example():
    model = scalar_model([(1, -1), (-1, 2)], [1, 2])
    assert value_at(model, np.array([1.5])) == pytest.approx(1.5)


def test_value_zero_coefficients():
    model = scalar_model([(1, -1), (-1, 2)], [0, 0])
    for x in (-3.0, 0.0, 2.7):
        assert value_at(model, np.array([x])) == 0.0


def test_value_constant_only():
    model = scalar_model([(0, 1)], [3])
    for x in (-10.0, 0.0, 42.0):
        assert value_at(model, np.array([x])) == 3.0


def test_gradient_away_from_kinks():
    model = scalar_model([(1, -1), (-1, 2)], [1, 2])
    assert model.gradient(model.preactivations(np.array([1.5]))).tolist() == [-1.0]


def test_gradient_at_kink_uses_half_slope():
    model = scalar_model([(1, -1), (-1, 2)], [1, 2])
    assert model.gradient(model.preactivations(np.array([1.0]))).tolist() == [-1.5]


def test_gradient_all_units_inactive():
    model = scalar_model([(1, -1), (1, -2)], [1, 2])
    assert model.gradient(model.preactivations(np.array([0.5]))).tolist() == [0.0]


def test_a_nan_preactivation_gives_a_nan_gradient_and_value():
    # the slope (sign(z) + 1) / 2 carries a NaN on; the value is NaN as well,
    # and the descent rejects a non-finite value before it forms a gradient
    model = scalar_model([(1, -1), (-1, 2)], [1, 2])
    z = np.array([np.nan, 1.0])
    assert np.isnan(model.gradient(z)).all()
    assert math.isnan(model.value(z))


@pytest.mark.parametrize(
    "rows, row_of, biases, coeffs",
    [
        ([1.0, 2.0], [0], [0.0], [1.0]),  # rows not a matrix
        ([[1.0], [2.0]], [0, 1], [0.0], [1.0]),  # more units than biases
        ([[1.0], [2.0]], [1], [0.0], [1.0, 1.0]),  # more coefficients than units
        ([[1.0], [2.0]], [2], [0.0], [1.0]),  # no such row
        ([[1.0], [2.0]], [-1], [0.0], [1.0]),  # would wrap to the last row
    ],
)
def test_inconsistent_unit_rows_rejected(rows, row_of, biases, coeffs):
    with pytest.raises(DimensionMismatchError):
        ReluSurrogate(rows, row_of, biases, coeffs)


def test_dimension_mismatch_on_evaluation():
    model = scalar_model([(1, 0)], [1])
    for points in (np.zeros(2), np.zeros((3, 2)), np.zeros((2, 3, 1)), np.float64(0.0)):
        with pytest.raises(DimensionMismatchError):
            model.preactivations(points)
    with pytest.raises(DimensionMismatchError):
        model.directional_derivative(model.preactivations(np.zeros(1)), np.zeros(2))


def test_piecewise_linearity_within_a_region():
    space = one_cont_two_int()
    model = build_surrogate(space, np.random.default_rng(4))
    model.coeffs[:] = np.random.default_rng(5).uniform(-1, 1, model.n_units)
    w, b = dense_weights(model), model.biases
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 50:
        p = space.uniform_sample(rng).flatten() + rng.normal(0, 1e-3, 3)
        q = p + rng.normal(0, 1e-4, 3)
        zp, zq = w @ p + b, w @ q + b
        if np.any(zp == 0) or np.any(zq == 0) or np.any(np.sign(zp) != np.sign(zq)):
            continue
        mid = (value_at(model, p) + value_at(model, q)) / 2
        got = value_at(model, (p + q) / 2)
        assert got == pytest.approx(mid, rel=1e-10, abs=1e-12)
        checked += 1


# -- one-sided derivatives -----------------------------------------------------


def test_directional_derivative_matches_gradient_off_kinks():
    space = one_cont_two_int()
    model = build_surrogate(space, np.random.default_rng(8))
    model.coeffs[:] = np.random.default_rng(9).uniform(-1, 1, model.n_units)
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = space.uniform_sample(rng).flatten() + rng.normal(0, 1e-3, 3)
        d = rng.normal(size=3)
        z = model.preactivations(x)
        assert model.directional_derivative(z, d) == pytest.approx(
            float(model.gradient(z) @ d), rel=1e-9, abs=1e-12
        )


def test_directional_derivative_is_one_sided_at_kink():
    # single unit max(0, x): slope 1 to the right of 0, 0 to the left
    model = scalar_model([(1, 0)], [1])
    z = model.preactivations(np.array([0.0]))
    assert model.directional_derivative(z, np.array([1.0])) == 1.0
    assert model.directional_derivative(z, np.array([-1.0])) == 0.0
    # the averaged gradient splits the difference
    assert model.gradient(z).tolist() == [0.5]


def test_directional_derivative_predicts_small_steps():
    space = one_cont_two_int()
    model = build_surrogate(space, np.random.default_rng(12))
    model.coeffs[:] = np.random.default_rng(13).uniform(-1, 1, model.n_units)
    w, b = dense_weights(model), model.biases
    rng = np.random.default_rng(14)
    for _ in range(30):
        x = space.uniform_sample(rng).flatten()  # integral: many units at kinks
        d = rng.normal(size=3)
        # step short enough that no unit away from its kink crosses it: on
        # that interval the model is linear in t and the quotient is exact
        z, rate = w @ x + b, w @ d
        crossing = (z != 0.0) & (np.sign(rate) == -np.sign(z)) & (rate != 0.0)
        t = 1e-4
        if np.any(crossing):
            t = min(t, 0.5 * float(np.min(np.abs(z[crossing] / rate[crossing]))))
        if t < 1e-12:
            continue
        slope = model.directional_derivative(model.preactivations(x), d)
        fd = (value_at(model, x + t * d) - value_at(model, x)) / t
        assert fd == pytest.approx(slope, rel=1e-7, abs=1e-7)


def test_axis_derivatives_match_unit_vector_calls():
    space = one_cont_two_int()
    model = build_surrogate(space, np.random.default_rng(15))
    model.coeffs[:] = np.random.default_rng(16).uniform(-1, 1, model.n_units)
    rng = np.random.default_rng(17)
    for _ in range(10):
        z = model.preactivations(space.uniform_sample(rng).flatten())
        up, down = model.axis_derivatives(z)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert up[i] == pytest.approx(model.directional_derivative(z, e), abs=1e-12)
            assert down[i] == pytest.approx(model.directional_derivative(z, -e), abs=1e-12)


# -- the axis move's first uphill kink -------------------------------------------
# Dyadic weights, biases and coefficients make every kink, slope and sum exact.


def plane_model(units, coeffs):
    """2-D model from ((w0, w1), bias) pairs."""
    weights, biases = zip(*units)
    return from_weights(np.array(weights, float), biases, coeffs)


# max(0, 2 - x0) with c = 1: slope -1 along +x0 from the origin until t = 2
FALLING = ((-1.0, 0.0), 2.0)


def kink_step(model, x, room=4.0):
    """The step along +e_0 from x, from the exact slope there."""
    z = model.preactivations(x)
    slope = float(model.axis_derivatives(z)[0][0])
    assert slope < 0.0
    return model.first_uphill_kink(z, 0, 1.0, slope, room)


def test_a_positive_unit_turning_on_stops_the_step_at_its_kink():
    # max(0, x0 - 1) with c = 2 lifts the slope to +1 at t = 1
    model = plane_model([FALLING, ((1.0, 0.0), -1.0)], [1.0, 2.0])
    assert kink_step(model, [0.0, 0.0]) == 1.0


def test_a_negative_kink_before_it_is_passed():
    # max(0, x0 - 0.5) with c = -0.5 steepens the slope to -1.5 at t = 0.5;
    # the c = 2 unit at t = 1 then lifts it to +0.5
    model = plane_model(
        [FALLING, ((1.0, 0.0), -0.5), ((1.0, 0.0), -1.0)], [1.0, -0.5, 2.0]
    )
    assert kink_step(model, [0.0, 0.0]) == 1.0


def test_a_unit_at_its_kink_is_not_a_kink_ahead():
    # max(0, x0) sits at its kink at the origin; the one-sided slope already
    # counts its c = 0.5 (-1 + 0.5), and counting it again at t = 0 would
    # turn the slope to 0 there
    model = plane_model([FALLING, ((1.0, 0.0), 0.0), ((1.0, 0.0), -1.0)], [1.0, 0.5, 2.0])
    assert model.axis_derivatives(model.preactivations(np.zeros(2)))[0][0] == -0.5
    assert kink_step(model, [0.0, 0.0]) == 1.0
    # moving down, its rate -1 puts its kink at t = -0 / -1 = +0; it turns
    # off there, and counting its c = 1.5 would turn the slope -1 to +0.5
    model = plane_model(
        [((1.0, 0.0), 2.0), ((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0)], [1.0, 1.5, 2.0]
    )
    z = model.preactivations(np.zeros(2))
    assert model.axis_derivatives(z)[1][0] == -1.0
    assert model.first_uphill_kink(z, 0, -1.0, -1.0, 4.0) == 1.0


def test_a_unit_the_axis_does_not_move_is_ignored(recwarn):
    # max(0, x1 - z) has rate 0 along e_0, with z < 0, z == 0 and z > 0
    tilted = [((0.0, 1.0), b) for b in (-0.25, 0.0, 0.25)]
    model = plane_model([FALLING, ((1.0, 0.0), -1.0), *tilted], [1.0, 2.0, 8.0, 8.0, 8.0])
    assert kink_step(model, [0.0, 0.0]) == 1.0
    assert model.first_uphill_kink(model.preactivations(np.zeros(2)), 0, -1.0, -1.0, 4.0) == 4.0
    assert not recwarn.list  # no division by a zero rate


def test_with_no_kink_turning_the_slope_the_step_is_the_room():
    # a c = 0.5 unit at t = 1 leaves the slope at -0.5 up to a room of 1.5,
    # short of the falling unit's own kink at t = 2
    model = plane_model([FALLING, ((1.0, 0.0), -1.0)], [1.0, 0.5])
    assert kink_step(model, [0.0, 0.0], room=1.5) == 1.5
    # a kink at exactly the room is not ahead
    model = plane_model([FALLING, ((1.0, 0.0), -1.0)], [1.0, 2.0])
    assert kink_step(model, [0.0, 0.0], room=1.0) == 1.0


def test_units_kinked_at_one_point_are_crossed_together():
    # at t = 1 a c = 2 unit turns on (slope +1) and a c = -1.5 unit turns on
    # with it (slope -0.5): past that point the model still falls, so the
    # step runs on to the c = 1 unit at t = 1.5
    model = plane_model(
        [FALLING, ((1.0, 0.0), -1.0), ((1.0, 0.0), -1.0), ((2.0, 0.0), -3.0)],
        [1.0, 2.0, -1.5, 1.0],
    )
    assert kink_step(model, [0.0, 0.0]) == 1.5


def test_tied_kinks_are_summed_in_unit_order():
    # four copies of changes (2**53, 1, -2**53) at t = 1: in unit order each
    # 2**53 + 1 rounds to 2**53 and the tie sums to 0, so the slope stays at
    # -1/2 until the falling unit (c = 1/2) turns off at t = 2. Other orders,
    # as an unstable sort of the tied t gives them, sum the ones and stop at 1
    big = 2.0**53
    model = plane_model([FALLING] + [((1.0, 0.0), -1.0)] * 12, [0.5] + [big, 1.0, -big] * 4)
    assert kink_step(model, [0.0, 0.0]) == 2.0


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=1, max_value=3),
    units=st.integers(min_value=1, max_value=10),
)
def test_the_kink_step_ends_where_the_exact_slope_stops_falling(seed, dim, units):
    rng = np.random.default_rng(seed)
    weights = rng.choice([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0], size=(units, dim))
    biases = rng.integers(-8, 9, size=units) / 4.0
    model = from_weights(weights, biases, rng.integers(-8, 9, size=units) / 4.0)
    lower, upper = -2.0, 2.0
    x = rng.integers(-8, 9, size=dim) / 4.0
    i, sign = int(rng.integers(dim)), float(rng.choice([-1.0, 1.0]))
    room = (upper - x[i]) if sign > 0.0 else (x[i] - lower)
    e = np.zeros(dim)
    e[i] = sign
    z = model.preactivations(x)
    slope = model.directional_derivative(z, e)
    if not (room > 0.0 and slope < 0.0):
        return
    step = model.first_uphill_kink(z, i, sign, slope, room)
    assert 0.0 < step <= room
    # every kink strictly between 0 and the step, from the dense unit rows
    weights = dense_weights(model)
    z, rate = weights @ x + model.biases, weights @ e
    t = -z[rate != 0.0] / rate[rate != 0.0]
    points = np.unique(np.concatenate([[0.0, step], t[(t > 0.0) & (t < step)]]))
    for mid in (points[:-1] + points[1:]) / 2.0:
        assert model.directional_derivative(model.preactivations(x + mid * e), e) < 0.0
    if step < room:
        assert model.directional_derivative(model.preactivations(x + step * e), e) >= 0.0


# -- forward products from the distinct unit rows ---------------------------------


def forward_product_mismatches(seed: int) -> list:
    """[model, entries compared, entries whose bytes differ] for the distinct-row
    pre-activations and rates against the dense ``weights`` products.

    Covers the three benchmark models (M = 221, 525, 6629; each has M mod 4 = 1)
    and a hand-built model with M mod 4 = 3 whose last three rows are mixed
    and repeat rows of its main block. Points are random, integral, and
    integral with about half the mixed units moved onto their kinks; rates
    are taken along random directions, axis moves and clipped steps.
    """
    rng = np.random.default_rng(seed)
    models = []
    for name in ("rosenbrock10", "ackley53", "rosenbrock238"):
        space, _ = make_benchmark(name)
        models.append((name, space, build_surrogate(space, rng)))
    space, weights = models[0][1], dense_weights(models[0][2])
    mixed = np.flatnonzero(np.any(weights[:, : space.n_continuous] != 0.0, axis=1))
    units = np.concatenate([rng.integers(len(weights), size=100), rng.choice(mixed, 3)])
    hand_built = from_weights(
        weights[units], rng.uniform(-1.0, 1.0, len(units)), np.ones(len(units))
    )
    models.append(("hand-built", space, hand_built))

    report = []
    for name, space, model in models:
        compared = differing = 0

        def check(got, expected):
            nonlocal compared, differing
            compared += len(expected)
            differing += int(np.sum(got.view(np.uint64) != expected.view(np.uint64)))

        weights = dense_weights(model)
        is_mixed = np.any(weights[:, : space.n_continuous] != 0.0, axis=1)
        biases = model.biases
        for _ in range(8):
            integral = space.uniform_sample(rng).flatten()
            for x in (rng.uniform(space.lower, space.upper), integral):
                model.biases = biases
                check(model.preactivations(x), weights @ x + model.biases)
            kinked = is_mixed & (rng.random(model.n_units) < 0.5)
            model.biases = np.where(kinked, -(weights @ integral), biases)
            z = model.preactivations(integral)
            assert np.all(z[kinked] == 0.0)
            check(z, weights @ integral + model.biases)
            axis = np.zeros(space.dim)
            axis[rng.integers(space.dim)] = rng.choice([-1.0, 1.0])
            step = np.clip(integral + rng.normal(size=space.dim), space.lower, space.upper)
            for d in (rng.normal(size=space.dim), axis, step - integral):
                check(model._forward(d), weights @ d)
        report.append([name, compared, differing])
    return report


def test_distinct_row_products_equal_the_dense_products_byte_for_byte():
    # under one BLAS thread, the setting the benchmark and the golden traces use
    report = one_blas_thread.call("test_surrogate", "forward_product_mismatches", 0)
    assert [name for name, _, _ in report] == [
        "rosenbrock10", "ackley53", "rosenbrock238", "hand-built"
    ]
    for name, compared, differing in report:
        assert compared > 0 and differing == 0, (name, compared, differing)


def gathered_product_mismatches(seed: int) -> list:
    """[model, entries compared, entries whose bytes differ] for one-vector
    products with the integer rows gathered, against the dense product
    (rows @ v)[row_of], on the three benchmark models with the gathers forced on.

    Points are random and integral. Directions are random with about a third
    of their entries +0.0 and a third -0.0, all +0.0, all -0.0, one-hot of
    either sign, integral, and random with one NaN or infinite entry (which
    takes the dense product).
    """
    rng = np.random.default_rng(seed)
    report = []
    for name in BENCHMARKS:
        space, _ = make_benchmark(name)
        model = build_surrogate(space, rng)
        model._integer_block = space.n_continuous, space.n_integer
        vectors = [np.zeros(space.dim), np.full(space.dim, -0.0)]
        for _ in range(40):
            vectors += [rng.uniform(space.lower, space.upper), space.uniform_sample(rng).flatten()]
            signed = rng.normal(size=space.dim)
            signed[rng.random(space.dim) < 1 / 3] = 0.0
            signed[rng.random(space.dim) < 1 / 3] = -0.0
            one_hot = np.zeros(space.dim)
            one_hot[rng.integers(space.dim)] = rng.choice([-1.0, 1.0])
            broken = rng.normal(size=space.dim)
            broken[rng.integers(space.dim)] = rng.choice([np.nan, np.inf, -np.inf])
            vectors += [signed, one_hot, np.round(rng.normal(size=space.dim) * 3.0), broken]
        compared = differing = 0
        for v in vectors:
            got, expected = model._forward(v), (model.rows @ v)[model.row_of]
            compared += len(expected)
            differing += int(np.sum(got.view(np.uint64) != expected.view(np.uint64)))
        report.append([name, compared, differing])
    return report


def test_gathered_integer_rows_equal_the_dense_product_byte_for_byte():
    report = one_blas_thread.call("test_surrogate", "gathered_product_mismatches", 0)
    assert [name for name, _, _ in report] == BENCHMARKS
    for name, compared, differing in report:
        assert compared > 0 and differing == 0, (name, compared, differing)


def test_only_the_largest_benchmark_model_gathers_its_integer_rows():
    for name in BENCHMARKS:
        space, _ = make_benchmark(name)
        model = build_surrogate(space, np.random.default_rng(0))
        gathers = model._integer_block == (space.n_continuous, space.n_integer)
        assert gathers == (name == "rosenbrock238"), name
        # rows set afterwards need not hold the integer block
        model.rows = model.rows.copy()
        assert model._integer_block is None


def stacked_mismatches(seed: int) -> list:
    """[model, rows compared, rows whose z or value bytes differ from the call
    on that row alone] for stacks of 1 to 16 points.

    Covers the three benchmark models (M = 221, 525, 6629) and one built model
    per M mod 4 = 0, 1, 2 and 3, with random coefficients. Each stack is an
    integral point, whose zero coordinates are made -0.0, followed by points
    along a long random direction from it, clipped into the box.
    """
    rng = np.random.default_rng(seed)
    spaces = [(name, make_benchmark(name)[0]) for name in BENCHMARKS]
    for variables, tail in LAYOUT_CASES[:4]:
        spaces.append((f"M mod 4 = {tail}", SearchSpace(tuple(VariableSpec(*v) for v in variables))))
    report = []
    for name, space in spaces:
        model = build_surrogate(space, rng)
        model.coeffs[:] = rng.uniform(-1.0, 1.0, model.n_units)
        compared = differing = 0
        for n in range(1, 17):
            x = space.uniform_sample(rng).flatten()
            direction = rng.normal(size=space.dim) * (space.upper - space.lower)
            steps = np.concatenate([[0.0], 2.0 ** -np.arange(n - 1)])
            stack = (x + steps[:, None] * direction).clip(space.lower, space.upper)
            stack[stack == 0.0] = -0.0
            z = model.preactivations(stack)
            values = model.value(z)
            assert z.shape == (n, model.n_units) and values.shape == (n,)
            for point, row, value in zip(stack, z, values):
                alone = model.preactivations(point)
                compared += 1
                value_bytes = np.float64(model.value(alone)).tobytes()
                differing += int(alone.tobytes() != row.tobytes() or value_bytes != value.tobytes())
        assert np.signbit(stack[stack == 0.0]).all()
        report.append([name, compared, differing])
    return report


@pytest.mark.parametrize("one_thread", [False, True])
def test_stacked_points_give_the_bytes_of_the_calls_on_each_point(one_thread):
    # the stack's products are one matrix-vector product and one dot product
    # per point; under one BLAS thread too, the setting of the golden traces
    if one_thread:
        report = one_blas_thread.call("test_surrogate", "stacked_mismatches", 0)
    else:
        report = stacked_mismatches(0)
    assert len(report) == 7
    for name, compared, differing in report:
        assert compared == 136 and differing == 0, (name, compared, differing)


def test_distinct_rows_reproduce_the_unit_rows():
    # the builder's closed-form layout and the generic one of a hand-built
    # model both satisfy rows[row_of] == weights, with the last M mod 4 units
    # on their own rows after whole 4-row groups
    space, _ = make_benchmark("ackley53")
    built = build_surrogate(space, np.random.default_rng(0))
    dense = dense_weights(built)
    hand_built = from_weights(dense[:-2], built.biases[:-2], built.coeffs[:-2])
    for model, weights in ((built, dense), (hand_built, dense[:-2])):
        rows, row_of = model.rows, model.row_of
        assert rows.flags.c_contiguous
        assert rows[row_of].tobytes() == weights.tobytes()
        m, tail = model.n_units, model.n_units % 4
        assert len(rows) % 4 == tail
        assert row_of[m - tail :].tolist() == list(range(len(rows) - tail, len(rows)))
        assert not np.isin(row_of[: m - tail], row_of[m - tail :]).any()
    # +-e_i, +-(e_i - e_{i-1}), the constant row and the directions, padded
    assert len(built.rows) == 205


def test_built_layout_is_the_generic_layout_of_its_weights():
    # a hand-built copy of a built model sums its transpose products over the
    # same rows in the same order, so the two give the same bits
    for name in ("rosenbrock10", "ackley53", "rosenbrock238"):
        space, _ = make_benchmark(name)
        model = build_surrogate(space, np.random.default_rng(0))
        hand_built = from_weights(dense_weights(model), model.biases, model.coeffs)
        assert model.rows.tobytes() == hand_built.rows.tobytes(), name
        assert model.row_of.tobytes() == hand_built.row_of.tobytes(), name


def test_building_the_largest_model_allocates_no_dense_unit_rows():
    # rosenbrock238: M = 6629 units over 238 coordinates, 597 distinct rows
    space, _ = make_benchmark("rosenbrock238")
    tracemalloc.start()
    try:
        model = build_surrogate(space, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (model.n_units, model.dim) == (6629, 238)
    assert peak < model.n_units * model.dim * 8 / 2


def test_building_the_largest_model_allocates_one_row_array():
    # the distinct rows are written once, into their final layout, and the
    # kink parts of axis_derivatives (two arrays of the rows' size) are formed
    # at its first call
    space, _ = make_benchmark("rosenbrock238")
    tracemalloc.start()
    try:
        model = build_surrogate(space, np.random.default_rng(0))
        held, peak = tracemalloc.get_traced_memory()
        model.axis_derivatives(model.preactivations(space.lower))
        after_axis_move, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = model.rows.nbytes
    assert peak <= 2.0 * size, peak / size
    assert held <= 1.3 * size, held / size
    assert 1.9 * size <= after_axis_move - held <= 2.2 * size, (after_axis_move - held) / size


def assert_built_as_concatenated(space, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    model = build_surrogate(space, rng)
    want = concatenated_build(space, reference_rng)
    for name, expected in zip(("rows", "row_of", "biases", "coeffs"), want):
        got = getattr(model, name)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return model


@pytest.mark.parametrize("name", ["rosenbrock10", "ackley53", "rosenbrock238"])
def test_one_pass_build_gives_the_bytes_of_the_concatenated_assembly(name):
    space, _ = make_benchmark(name)
    assert_built_as_concatenated(space, 0)


C, I = "continuous", "integer"
LAYOUT_CASES = [
    # (variables, M mod 4): every tail length, with and without continuous
    # variables, and with an integer variable pinned to one value
    (((I, 2, 2), (C, -1.0, 1.0), (I, 0, 3)), 0),
    (((C, -1.0, 1.0), (I, 0, 2)), 1),
    (((C, -1.0, 1.0), (I, 0, 2), (I, 0, 2)), 2),
    (((C, -1.0, 1.0), (C, 0.0, 3.0), (I, -1, 1)), 3),
    (((I, 0, 1),), 1),
    (((I, 0, 2), (I, 0, 2)), 3),
    (((I, 2, 2),), 3),
    (((I, 0, 3), (I, 1, 1)), 3),
]


@pytest.mark.parametrize("variables, tail", LAYOUT_CASES)
def test_one_pass_build_gives_the_bytes_of_the_concatenated_assembly_at_every_tail(
    variables, tail
):
    space = SearchSpace(tuple(VariableSpec(*v) for v in variables))
    for seed in range(3):
        assert assert_built_as_concatenated(space, seed).n_units % 4 == tail


@st.composite
def small_spaces(draw):
    integers = [
        VariableSpec("integer", lo, lo + draw(st.integers(0, 3)))
        for lo in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    ]
    continuous = [
        VariableSpec("continuous", lo, lo + draw(st.sampled_from([0.5, 1.0, 3.0])))
        for lo in draw(st.lists(st.sampled_from([-2.0, 0.0, 1.5]), max_size=3))
    ]
    return SearchSpace(tuple(draw(st.permutations(integers + continuous))))


@settings(max_examples=200, deadline=None)
@given(space=small_spaces(), seed=st.integers(0, 2**32 - 1))
def test_one_pass_build_gives_the_bytes_of_the_concatenated_assembly_on_small_spaces(
    space, seed
):
    assert_built_as_concatenated(space, seed)


# -- pre-activations and values against a near-exact sum -------------------------

UNIT_ROUNDOFF = 2.0**-53


def split(v):
    """Veltkamp's split of each entry into a 26-bit high part and the rest."""
    c = 134217729.0 * v  # (2**27 + 1) * v
    high = c - (c - v)
    return high, v - high


def exact_products(a, b):
    """(p, e) with p = fl(a * b) and p + e == a * b exactly, entry by entry
    (Dekker's product; exact while no entry overflows or underflows)."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def gamma(n: int) -> float:
    """n u / (1 - n u), which bounds the relative rounding of a sum of n
    products |fl(a . b) - a . b| / (|a| . |b|) in any order, fused or not."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


@pytest.mark.parametrize("name", ["rosenbrock10", "ackley53", "rosenbrock238"])
def test_preactivations_and_value_are_within_their_rounding_bound_of_an_exact_sum(name):
    # the reference sums exact products of the dense rows with math.fsum, so
    # it is the exact result rounded once (u |z| <= u a off); z is dim products
    # and a bias, the value M products of the coefficients and features
    space, _ = make_benchmark(name)
    rng = np.random.default_rng(40)
    model = build_surrogate(space, rng)
    model.coeffs[:] = rng.uniform(-1.0, 1.0, model.n_units)
    weights, biases, coeffs = dense_weights(model), model.biases, model.coeffs
    u = UNIT_ROUNDOFF
    points = [rng.uniform(space.lower, space.upper) for _ in range(2)]
    points += [space.uniform_sample(rng).flatten() for _ in range(2)]  # integral
    for x in points:
        p, e = exact_products(weights, x)
        z_exact = np.array([math.fsum(row) for row in np.hstack([p, e, biases[:, None]]).tolist()])
        # a = |w| . |x| + |b| is itself rounded, so it is raised by its own bound
        a = (np.abs(weights) @ np.abs(x) + np.abs(biases)) * (1.0 + gamma(model.dim + 1))
        z_bound = (gamma(model.dim + 1) + u) * a
        z = model.preactivations(x)
        assert np.all(np.abs(z - z_exact) <= z_bound), name
        p, e = exact_products(coeffs, np.maximum(z_exact, 0.0))
        value_exact = math.fsum([*p, *e])
        value_bound = (
            gamma(model.n_units) * (np.abs(coeffs) @ np.maximum(z, 0.0))
            + np.abs(coeffs) @ z_bound
            + u * abs(value_exact)
        ) * (1.0 + gamma(model.n_units + 1))
        assert abs(model.value(z) - value_exact) <= value_bound, name


def rounded_sums(*parts):
    """The exact sum of each row of the parts laid side by side, rounded once."""
    return np.array([math.fsum(row) for row in np.hstack(parts).tolist()])


def oracle_cases(name, seed):
    """(space, model, generator, points) for a benchmark model with random
    coefficients: a random point and an integral one, where the integer units
    sit on their kinks."""
    space, _ = make_benchmark(name)
    rng = np.random.default_rng(seed)
    model = build_surrogate(space, rng)
    model.coeffs[:] = rng.uniform(-1.0, 1.0, model.n_units)
    points = [rng.uniform(space.lower, space.upper), space.uniform_sample(rng).flatten()]
    return space, model, rng, points


@pytest.mark.parametrize("name", BENCHMARKS)
def test_one_sided_derivatives_are_within_their_rounding_bound_of_an_exact_sum(name):
    # along d the exact slope is sum_k c_k s_k, s_k = r_k above the kink,
    # max(r_k, 0) at it and 0 below, with r = W d. The reference takes the
    # side from the model's own z and r rounded once (rho), and sums exact
    # products with math.fsum. The model's rate is within gamma_dim |W||d| of
    # r, and s is 1-Lipschitz in r; its dot product adds gamma_M |c||s|
    space, model, rng, points = oracle_cases(name, 41)
    weights, coeffs = dense_weights(model), model.coeffs
    m, dim = model.n_units, model.dim
    at_kinks = 0
    for x in points:
        z = model.preactivations(x)
        above, at = z > 0.0, z == 0.0
        at_kinks += int(at.any())
        clipped_step = np.clip(x + rng.normal(size=dim), space.lower, space.upper) - x
        for d in (rng.normal(size=dim), clipped_step):
            rho = rounded_sums(*exact_products(weights, d))
            s_ref = np.where(above, rho, np.where(at, np.maximum(rho, 0.0), 0.0))
            exact = math.fsum(np.concatenate(exact_products(coeffs, s_ref)))
            rate = model._forward(d)
            s_model = np.where(above, rate, np.where(at, np.maximum(rate, 0.0), 0.0))
            # |W||d| is itself rounded, so it is raised by its own bound
            a = (np.abs(weights) @ np.abs(d)) * (1.0 + gamma(dim))
            rate_bound = gamma(dim) * a + gamma(1) * np.abs(rho)
            bound = (
                gamma(m) * (np.abs(coeffs) @ np.abs(s_model))
                + np.abs(coeffs) @ np.where(above | at, rate_bound, 0.0)
                + gamma(1) * abs(exact)
            ) * (1.0 + gamma(m + 1))
            assert abs(model.directional_derivative(z, d) - exact) <= bound, name
    assert at_kinks > 0


@pytest.mark.parametrize("name", BENCHMARKS)
def test_axis_derivatives_are_within_their_rounding_bound_of_an_exact_sum(name):
    # along +-e_i the rate is W_ki exactly, so the exact slopes are sums of
    # exact products. The model sums c over the units of each of its K rows
    # (gamma_M) and then multiplies by the rows (gamma_K), for the part above
    # the kinks and the part at them, and adds the two parts (u)
    _, model, _, points = oracle_cases(name, 42)
    weights, coeffs = dense_weights(model), model.coeffs
    m, k = model.n_units, len(model.rows)
    for x in points:
        z = model.preactivations(x)
        above, at = (z > 0.0)[:, None], (z == 0.0)[:, None]
        up_down = model.axis_derivatives(z)
        for side, got in zip((weights, -weights), up_down):
            slopes = np.where(above, side, np.where(at, np.maximum(side, 0.0), 0.0))
            exact = rounded_sums(*(part.T for part in exact_products(coeffs[:, None], slopes)))
            scale = np.abs(coeffs) @ np.where(above | at, np.abs(slopes), 0.0)
            bound = (gamma(m + k + 1) * scale + gamma(2) * np.abs(exact)) * (1.0 + gamma(m + 1))
            assert np.all(np.abs(got - exact) <= bound), name


Kink = collections.namedtuple("Kink", "t past units scale crossed")


def exact_kinks(model, z, i, sign, slope, room):
    """The kinks ahead along ``sign`` * e_i in increasing order of t, one Kink
    per distinct t: the exact slope past t, the number of units kinked up to t,
    the scale |slope| + sum |c_k r_k| over them, and the (unit, c_k |r_k|)
    pairs kinked at t, in unit order.

    Each t = -z_k / r_k is a Fraction of the model's own z and r = sign * w_ki,
    so ties are exact; the slope past t is ``slope`` plus c_k |r_k| of every
    unit kinked up to t, summed exactly.
    """
    rates = (sign * dense_weights(model)[:, i]).tolist()
    crossed = collections.defaultdict(list)
    for k, (zk, rk, ck) in enumerate(zip(z.tolist(), rates, model.coeffs.tolist())):
        if rk != 0.0:
            t = Fraction(-zk) / Fraction(rk)
            if 0 < t < room:
                crossed[t].append((k, Fraction(ck) * abs(Fraction(rk))))
    past, scale, units, kinks = Fraction(slope), abs(Fraction(slope)), 0, []
    for t in sorted(crossed):
        past += sum(change for _, change in crossed[t])
        scale += sum(abs(change) for _, change in crossed[t])
        units += len(crossed[t])
        kinks.append(Kink(t, past, units, scale, crossed[t]))
    return kinks


def check_kink_step(space, model, x):
    """The model's step from x along the steepest descending axis move that
    stays in the box (as the descent picks it from ``axis_derivatives``),
    checked against the exact kinks; returns (step, kinks, z, i, sign).

    The model sums the changes in float, in order of t: each product c_k |r_k|
    and each addition rounds once, so past j units its slope is within
    gamma_(j+1) scale of the exact one, and equals it when every term is a
    multiple of 1/D and scale D < 2**53 (no sum then rounds). It may pass a
    kink only where its slope is < 0 (exact < bound) and stop only where it
    is >= 0 (exact >= -bound). Where every exact slope is farther from 0 than
    its bound, that leaves one step: the first t past which the exact slope
    is >= 0, or the room.
    """
    z = model.preactivations(x)
    up, down = model.axis_derivatives(z)
    up, down = np.where(x < space.upper, up, np.inf), np.where(x > space.lower, down, np.inf)
    i = int(np.argmin(np.minimum(up, down)))
    sign = 1.0 if up[i] <= down[i] else -1.0
    slope = float(min(up[i], down[i]))
    room = float(space.upper[i] - x[i] if sign > 0.0 else x[i] - space.lower[i])
    assert slope < 0.0 and room > 0.0
    step = model.first_uphill_kink(z, i, sign, slope, room)
    kinks = exact_kinks(model, z, i, sign, slope, room)
    terms = [Fraction(slope)] + [change for kink in kinks for _, change in kink.crossed]
    exact = not kinks or kinks[-1].scale * max(v.denominator for v in terms) < 2**53
    assert step == room or any(float(kink.t) == step for kink in kinks)
    stop = None
    for kink in kinks:
        bound = 0.0 if exact else gamma(kink.units + 1) * kink.scale
        if float(kink.t) < step:
            assert kink.past < bound
        elif float(kink.t) == step:  # the last kink that rounds to the step
            stop = kink.past, bound
    assert stop is None or stop[0] >= -stop[1]
    return step, kinks, z, i, sign


def quarter_coefficients(space, model, rng):
    """Coefficients in {-1/2, -1/4, ..., 2} on the constant and integer units
    and 0 on the mixed ones: every slope along an integer axis is then a sum
    of multiples of 1/4, which no float sum rounds."""
    is_mixed = np.any(dense_weights(model)[:, : space.n_continuous] != 0.0, axis=1)
    return np.where(is_mixed, 0.0, rng.integers(-2, 9, model.n_units) / 4.0)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_the_kink_step_is_the_first_kink_whose_exact_slope_is_not_negative(name):
    # uniform coefficients round their slopes; quarter ones do not
    space, model, rng, points = oracle_cases(name, 43)
    for coeffs in (model.coeffs.copy(), quarter_coefficients(space, model, rng)):
        model.coeffs[:] = coeffs
        for x in points:
            check_kink_step(space, model, x)


@pytest.mark.parametrize("name", ["rosenbrock10", "rosenbrock238"])
def test_the_kink_step_stops_at_an_exact_zero_slope_and_passes_a_tie_that_ends_below_it(name):
    # from an integral point the integer units' kinks tie at integer t (the
    # binary variables of ackley53 leave none inside an axis move). Units that
    # turn on at a tie (z < 0, |r| = 1) are re-weighted: that moves neither z
    # nor the slopes at x, only the slope past their kink. With quarter
    # coefficients every sum is exact
    space, model, rng, (_, x) = oracle_cases(name, 43)
    model.coeffs[:] = quarter_coefficients(space, model, rng)
    step, kinks, z, i, _ = check_kink_step(space, model, x)
    rows = dense_weights(model)
    for tie in kinks:
        turning_on = [k for k, _ in tie.crossed if z[k] < 0.0 and abs(rows[k, i]) == 1.0]
        if len(turning_on) >= 2:
            break
    assert len(turning_on) >= 2 and float(tie.t) <= step
    first, last = turning_on[0], turning_on[-1]
    # the slope past the tie becomes exactly 0: the model stops there
    model.coeffs[last] -= float(tie.past)
    assert check_kink_step(space, model, x)[0] == float(tie.t)
    # -1/4 past the tie's last unit but >= 0 past its first: the model passes
    # the whole tie
    lift = math.ceil(tie.scale) + 1.0
    model.coeffs[first] += lift
    model.coeffs[last] -= lift + 0.25
    step, kinks, *_ = check_kink_step(space, model, x)
    assert step > float(tie.t) and [kink.past for kink in kinks if kink.t == tie.t] == [-0.25]


# -- transpose products from the distinct unit rows -------------------------------


def transpose_product_cases(seed: int):
    """(name, model, point) for the three benchmark models (M = 221, 525, 6629;
    M mod 4 = 1) and a hand-built model with M mod 4 = 3, all with random
    coefficients. Points are random, integral (integer units at their kinks)
    and integral with about half the mixed units moved onto their kinks."""
    rng = np.random.default_rng(seed)
    models = []
    for name in ("rosenbrock10", "ackley53", "rosenbrock238"):
        space, _ = make_benchmark(name)
        models.append((name, space, build_surrogate(space, rng)))
    space, model = models[0][1], models[0][2]
    units = rng.integers(model.n_units, size=103)
    hand_built = from_weights(dense_weights(model)[units], model.biases[units], np.ones(len(units)))
    models.append(("hand-built", space, hand_built))
    for name, space, model in models:
        model.coeffs[:] = rng.uniform(-1.0, 1.0, model.n_units)
        is_mixed = np.any(dense_weights(model)[:, : space.n_continuous] != 0.0, axis=1)
        for _ in range(4):
            integral = space.uniform_sample(rng).flatten()
            yield name, model, rng.uniform(space.lower, space.upper)
            yield name, model, integral
            # the model's own forward product puts them exactly on their kinks
            # whatever the BLAS thread count
            kinked = is_mixed & (rng.random(model.n_units) < 0.5)
            model.biases = np.where(kinked, -model._forward(integral), model.biases)
            yield name, model, integral


def dense_transpose_products(model, z):
    """The gradient and axis derivatives from products with the dense weights,
    at the model's own pre-activations ``z``."""
    w = dense_weights(model)
    slope = np.where(z > 0.0, 1.0, np.where(z < 0.0, 0.0, 0.5))
    base = w.T @ (model.coeffs * (z > 0.0))
    kink = z == 0.0
    up = np.maximum(w[kink], 0.0).T @ model.coeffs[kink]
    down = np.maximum(-w[kink], 0.0).T @ model.coeffs[kink]
    return w.T @ (model.coeffs * slope), base + up, -base + down


def test_transpose_products_match_the_dense_products():
    # entries are compared relative to |weights|^T |coeffs|, the scale of the
    # sum's rounding; the worst case measured is 9.9e-16 of it (rosenbrock238)
    points_at_kinks = {}
    for name, model, x in transpose_product_cases(0):
        scale = np.abs(dense_weights(model)).T @ np.abs(model.coeffs)
        z = model.preactivations(x)
        got = (model.gradient(z), *model.axis_derivatives(z))
        expected = dense_transpose_products(model, z)
        for part, g, e in zip(("gradient", "up", "down"), got, expected):
            assert np.all(np.abs(g - e) <= 1e-14 * scale), (name, part)
        at_kink = np.any(z == 0.0)
        points_at_kinks[name] = points_at_kinks.get(name, 0) + int(at_kink)
    assert sorted(points_at_kinks) == ["ackley53", "hand-built", "rosenbrock10", "rosenbrock238"]
    assert min(points_at_kinks.values()) > 0


def test_unit_weightings_give_the_bytes_of_their_where_forms():
    # gradient weights unit k by c_k (sign(z_k) + 1) / 2 and axis_derivatives
    # the kinked units by c_k (z_k == 0); against the np.where spellings the
    # per-unit weights differ only in the sign of zeros, which the per-row
    # sums (from +0) do not keep
    for name, model, x in transpose_product_cases(2):
        z = model.preactivations(x)
        slope = np.where(z > 0.0, 1.0, np.where(z < 0.0, 0.0, 0.5))
        gradient = model.rows.T @ model._per_row(model.coeffs * slope)
        assert model.gradient(z).tobytes() == gradient.tobytes(), name
        base = model.rows.T @ model._per_row(model.coeffs * (z > 0.0))
        kinked = model._per_row(np.where(z == 0.0, model.coeffs, 0.0))
        up = base + np.maximum(model.rows, 0.0).T @ kinked
        down = -base + np.maximum(-model.rows, 0.0).T @ kinked
        got = model.axis_derivatives(z)
        assert (got[0].tobytes(), got[1].tobytes()) == (up.tobytes(), down.tobytes()), name


def test_axis_derivatives_match_directional_derivatives_at_benchmark_size():
    # relative to |weights|^T |coeffs| as above; the worst case measured is 1.7e-16
    cases = [(model, x) for name, model, x in transpose_product_cases(1) if name == "ackley53"]
    for model, x in cases:
        scale = np.abs(dense_weights(model)).T @ np.abs(model.coeffs)
        z = model.preactivations(x)
        up, down = model.axis_derivatives(z)
        for i in range(model.dim):
            e = np.zeros(model.dim)
            e[i] = 1.0
            assert abs(up[i] - model.directional_derivative(z, e)) <= 1e-14 * scale[i]
            assert abs(down[i] - model.directional_derivative(z, -e)) <= 1e-14 * scale[i]


def test_unit_rows_are_read_only():
    model = build_surrogate(one_cont_two_int(), np.random.default_rng(0))
    for name in ("rows", "row_of", "biases"):
        with pytest.raises(ValueError):
            getattr(model, name)[1] = 0


def bits(out):
    """Exact bytes of a method's result: a float, an array or a pair of arrays."""
    if isinstance(out, tuple):
        return tuple(bits(part) for part in out)
    return np.asarray(out, dtype=float).tobytes()


def call(model, method, z, direction):
    if method == "directional_derivative":
        return getattr(model, method)(z, direction)
    return getattr(model, method)(z)


@pytest.mark.parametrize("attribute", ["rows", "biases"])
def test_reassigned_unit_rows_are_used_at_once(attribute):
    model = build_surrogate(one_cont_two_int(), np.random.default_rng(0))
    x = np.array([0.3, 1.0, 2.0])  # integral: integer units at their kinks
    direction = np.array([0.5, -1.0, 1.0])
    before = model.features(model.preactivations(x))
    model.axis_derivatives(model.preactivations(x))
    setattr(model, attribute, getattr(model, attribute) * 2.0)
    z = model.preactivations(x)
    after = model.features(z)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, np.maximum(dense_weights(model) @ x + model.biases, 0.0))
    assert not getattr(model, attribute).flags.writeable
    # every product, the kink terms of axis_derivatives included, follows the
    # new rows as in a model built from them
    fresh = ReluSurrogate(model.rows, model.row_of, model.biases, model.coeffs)
    fresh_z = fresh.preactivations(x)
    assert bits(z) == bits(fresh_z)
    for method in ("value", "gradient", "directional_derivative", "axis_derivatives"):
        expected = call(fresh, method, fresh_z, direction)
        assert bits(call(model, method, z, direction)) == bits(expected), method


# -- vertex enumeration ----------------------------------------------------------


def test_vertex_pinned_by_integer_unit():
    # units: x_d - 1 and the mixed kink 0.3 x_c + 0.2 x_d - 0.5
    space = SearchSpace(
        (VariableSpec("continuous", -5, 5), VariableSpec("integer", -5, 5))
    )
    model = from_weights(
        np.array([[0.0, 1.0], [0.3, 0.2]]), np.array([-1.0, -0.5]), np.array([1.0, 1.0])
    )
    vertices = enumerate_vertices(model, space)
    assert len(vertices) == 1
    v = vertices[0]
    assert v.point.xd[0] == 1.0
    assert v.point.xc[0] == pytest.approx(1.0)
    assert v.in_bounds


def test_dependent_subsets_are_skipped():
    space = SearchSpace(
        (VariableSpec("continuous", -5, 5), VariableSpec("integer", -5, 5))
    )
    w = np.array([0.3, 0.2])
    model = from_weights(
        np.array([w, w]), np.array([-0.5, 0.7]), np.array([1.0, 1.0])
    )
    assert enumerate_vertices(model, space) == []


def test_out_of_bounds_vertices_are_flagged():
    space = int_space((0, 3), (0, 3))
    model = from_weights(np.eye(2), np.array([-5.0, -2.0]), np.array([1.0, 1.0]))
    vertices = enumerate_vertices(model, space)
    assert len(vertices) == 1
    assert vertices[0].point.xd.tolist() == [5.0, 2.0]
    assert not vertices[0].in_bounds


def test_enumeration_rejects_mixed_rows_spanning_too_many_dimensions():
    # one continuous variable, but the two mixed rows are independent
    space = SearchSpace(
        (VariableSpec("continuous", -5, 5), VariableSpec("integer", -5, 5))
    )
    model = from_weights(
        np.array([[0.3, 0.2], [0.1, -0.4]]), np.array([-0.5, 0.7]), np.array([1.0, 1.0])
    )
    with pytest.raises(DimensionMismatchError, match="span 2 dimensions"):
        enumerate_vertices(model, space)


def test_enumeration_refuses_oversized_models():
    space = one_cont_two_int()
    model = build_surrogate(space, np.random.default_rng(0))
    with pytest.raises(TooLargeError):
        enumerate_vertices(model, space, max_subsets=10)


def test_vertices_of_built_surrogates_have_integral_integer_block():
    # small version of the integrality sweep; the full one is in acceptance
    for seed in range(5):
        rng = np.random.default_rng(seed)
        space = SearchSpace(
            (
                VariableSpec("continuous", -1, 1),
                VariableSpec("integer", 0, 2),
            )
        )
        model = build_surrogate(space, rng)
        model.coeffs[:] = rng.uniform(-1, 1, model.n_units)
        for v in enumerate_vertices(model, space):
            assert np.all(np.abs(v.point.xd - np.round(v.point.xd)) <= 1e-9)
