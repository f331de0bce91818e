"""Tests for the ReLU surrogate: basis construction, evaluation, vertices."""

import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import one_blas_thread
from mvrsm.errors import DimensionMismatchError, InvalidSettingError
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
from handbuilt import dense_weights, from_weights, scalar_model
from vertices import TooLargeError, enumerate_vertices


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


def dense_integer_units(space):
    """The constant and integer units as dense (weights, biases)."""
    rows, row_of, biases = _integer_block(space)
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


def test_mixed_units_draw_one_index_then_one_bias_per_unit():
    # the random stream layout is part of every seeded trace: per unit, one
    # direction index and then one bias, in unit order (several directions,
    # since drawing an index among one consumes nothing from the stream)
    space = SearchSpace(
        tuple(VariableSpec("continuous", -1.0, 2.0) for _ in range(3))
        + (VariableSpec("integer", 0, 2),)
    )
    dirs = sample_directions(space, np.random.default_rng(3))
    assert len(dirs) == 3
    picks, biases = _draw_mixed_units(space, dirs, 40, np.random.default_rng(4))
    ref = np.random.default_rng(4)
    for w, b in zip(dirs[picks], biases):
        d = dirs[ref.integers(len(dirs))]
        q1, q2 = corner_points(space, d)
        assert w.tobytes() == d.tobytes()
        assert b == ref.uniform(-float(d @ q2), -float(d @ q1))


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
    for w, q1, q2 in zip(weights, min_corners, max_corners):
        want1, want2 = corner_points(space, w)
        assert q1.tobytes() == want1.tobytes() and q2.tobytes() == want2.tobytes()


# -- the index and bias stream, replayed from raw words -------------------------

BUFFERING_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]


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
    bit_generator=st.sampled_from(BUFFERING_GENERATORS),
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


@pytest.mark.parametrize("bit_generator", BUFFERING_GENERATORS)
@pytest.mark.parametrize("buffered", [False, True])
def test_rejected_draws_are_redone_with_the_scalar_calls(bit_generator, buffered):
    # integers(3 * 2**30) draws x again when (3 * 2**30 * x) mod 2**32 < 2**30,
    # a quarter of the time
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
    assert 20 <= replayed.calls["integers"] == replayed.calls["random"] <= 100
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


def test_a_generator_without_a_32_bit_buffer_is_rejected():
    for space in (one_cont_two_int(), int_space((0, 2), (0, 2))):
        with pytest.raises(InvalidSettingError) as err:
            build_surrogate(space, np.random.Generator(np.random.MT19937(0)))
        assert err.value.field == "rng" and "MT19937" in err.value.reason


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
    model.rls.update(model.features(np.zeros(3)), 5.0)
    assert model.value(np.zeros(3)) != 0.0


# -- evaluation ---------------------------------------------------------------


def test_value_hand_example():
    model = scalar_model([(1, -1), (-1, 2)], [1, 2])
    assert model.value(np.array([1.5])) == pytest.approx(1.5)


def test_value_zero_coefficients():
    model = scalar_model([(1, -1), (-1, 2)], [0, 0])
    for x in (-3.0, 0.0, 2.7):
        assert model.value(np.array([x])) == 0.0


def test_value_constant_only():
    model = scalar_model([(0, 1)], [3])
    for x in (-10.0, 0.0, 42.0):
        assert model.value(np.array([x])) == 3.0


def test_gradient_away_from_kinks():
    model = scalar_model([(1, -1), (-1, 2)], [1, 2])
    assert model.gradient(np.array([1.5])).tolist() == [-1.0]


def test_gradient_at_kink_uses_half_slope():
    model = scalar_model([(1, -1), (-1, 2)], [1, 2])
    assert model.gradient(np.array([1.0])).tolist() == [-1.5]


def test_gradient_all_units_inactive():
    model = scalar_model([(1, -1), (1, -2)], [1, 2])
    assert model.gradient(np.array([0.5])).tolist() == [0.0]


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
    with pytest.raises(DimensionMismatchError):
        model.value(np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        model.directional_derivative(np.zeros(1), np.zeros(2))


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
        mid = (model.value(p) + model.value(q)) / 2
        got = model.value((p + q) / 2)
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
        assert model.directional_derivative(x, d) == pytest.approx(
            float(model.gradient(x) @ d), rel=1e-9, abs=1e-12
        )


def test_directional_derivative_is_one_sided_at_kink():
    # single unit max(0, x): slope 1 to the right of 0, 0 to the left
    model = scalar_model([(1, 0)], [1])
    x = np.array([0.0])
    assert model.directional_derivative(x, np.array([1.0])) == 1.0
    assert model.directional_derivative(x, np.array([-1.0])) == 0.0
    # the averaged gradient splits the difference
    assert model.gradient(x).tolist() == [0.5]


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
        slope = model.directional_derivative(x, d)
        fd = (model.value(x + t * d) - model.value(x)) / t
        assert fd == pytest.approx(slope, rel=1e-7, abs=1e-7)


def test_axis_derivatives_match_unit_vector_calls():
    space = one_cont_two_int()
    model = build_surrogate(space, np.random.default_rng(15))
    model.coeffs[:] = np.random.default_rng(16).uniform(-1, 1, model.n_units)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = space.uniform_sample(rng).flatten()
        up, down = model.axis_derivatives(x)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert up[i] == pytest.approx(model.directional_derivative(x, e), abs=1e-12)
            assert down[i] == pytest.approx(model.directional_derivative(x, -e), abs=1e-12)


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
    x = np.asarray(x, dtype=float)
    slope = float(model.axis_derivatives(x)[0][0])
    assert slope < 0.0
    return model.first_uphill_kink(x, 0, 1.0, slope, room)


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
    assert model.axis_derivatives(np.zeros(2))[0][0] == -0.5
    assert kink_step(model, [0.0, 0.0]) == 1.0
    # moving down, its rate -1 puts its kink at t = -0 / -1 = +0; it turns
    # off there, and counting its c = 1.5 would turn the slope -1 to +0.5
    model = plane_model(
        [((1.0, 0.0), 2.0), ((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0)], [1.0, 1.5, 2.0]
    )
    assert model.axis_derivatives(np.zeros(2))[1][0] == -1.0
    assert model.first_uphill_kink(np.zeros(2), 0, -1.0, -1.0, 4.0) == 1.0


def test_a_unit_the_axis_does_not_move_is_ignored(recwarn):
    # max(0, x1 - z) has rate 0 along e_0, with z < 0, z == 0 and z > 0
    tilted = [((0.0, 1.0), b) for b in (-0.25, 0.0, 0.25)]
    model = plane_model([FALLING, ((1.0, 0.0), -1.0), *tilted], [1.0, 2.0, 8.0, 8.0, 8.0])
    assert kink_step(model, [0.0, 0.0]) == 1.0
    assert model.first_uphill_kink(np.zeros(2), 0, -1.0, -1.0, 4.0) == 4.0
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
    slope = model.directional_derivative(x, e)
    if not (room > 0.0 and slope < 0.0):
        return
    step = model.first_uphill_kink(x, i, sign, slope, room)
    assert 0.0 < step <= room
    # every kink strictly between 0 and the step, from the dense unit rows
    weights = dense_weights(model)
    z, rate = weights @ x + model.biases, weights @ e
    t = -z[rate != 0.0] / rate[rate != 0.0]
    points = np.unique(np.concatenate([[0.0, step], t[(t > 0.0) & (t < step)]]))
    for mid in (points[:-1] + points[1:]) / 2.0:
        assert model.directional_derivative(x + mid * e, e) < 0.0
    if step < room:
        assert model.directional_derivative(x + step * e, e) >= 0.0


# -- remembered pre-activations --------------------------------------------------


def bits(out):
    """Exact bytes of a method's result: a float, an array or a pair of arrays."""
    if isinstance(out, tuple):
        return tuple(bits(part) for part in out)
    return np.asarray(out, dtype=float).tobytes()


def call(model, method, x, direction):
    if method == "directional_derivative":
        return getattr(model, method)(x, direction)
    return getattr(model, method)(x)


def test_remembered_preactivations_give_the_cold_results_bit_for_bit():
    space, _ = make_benchmark("rosenbrock10")
    model = build_surrogate(space, np.random.default_rng(30))
    rng = np.random.default_rng(31)
    model.coeffs[:] = rng.uniform(-1, 1, model.n_units)
    integral = space.uniform_sample(rng).flatten()  # many units at their kinks
    nudged = integral.copy()
    nudged[-1] += 0.5 if nudged[-1] < space.upper[-1] else -0.5  # differs in one coordinate
    points = [integral, nudged, space.uniform_sample(rng).flatten()]
    direction = rng.normal(size=space.dim)
    methods = ("features", "value", "gradient", "directional_derivative", "axis_derivatives")
    # revisits, evictions and a coefficient update in between
    sequence = [(m, p) for p in (0, 0, 1, 0, 2, 1, 1, 2, 0) for m in methods]
    sequence = sequence[::2] + sequence[1::2] + [("update", 1)] + sequence
    for method, p in sequence:
        if method == "update":
            model.rls.update(model.features(points[p]), 3.0)
            continue
        cold = from_weights(dense_weights(model), model.biases, model.coeffs)
        warm_out = call(model, method, points[p], direction)
        assert bits(warm_out) == bits(call(cold, method, points[p], direction)), (method, p)


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
                check(model._preactivation(x), weights @ x + model.biases)
            kinked = is_mixed & (rng.random(model.n_units) < 0.5)
            model.biases = np.where(kinked, -(weights @ integral), biases)
            z = model._preactivation(integral)
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


def dense_transpose_products(model, x):
    """The gradient and axis derivatives from products with the dense weights,
    at the model's own pre-activations."""
    w = dense_weights(model)
    z = model._preactivation(x)
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
        got = (model.gradient(x), *model.axis_derivatives(x))
        expected = dense_transpose_products(model, x)
        for part, g, e in zip(("gradient", "up", "down"), got, expected):
            assert np.all(np.abs(g - e) <= 1e-14 * scale), (name, part)
        at_kink = np.any(model._preactivation(x) == 0.0)
        points_at_kinks[name] = points_at_kinks.get(name, 0) + int(at_kink)
    assert sorted(points_at_kinks) == ["ackley53", "hand-built", "rosenbrock10", "rosenbrock238"]
    assert min(points_at_kinks.values()) > 0


def test_axis_derivatives_match_directional_derivatives_at_benchmark_size():
    # relative to |weights|^T |coeffs| as above; the worst case measured is 1.7e-16
    cases = [(model, x) for name, model, x in transpose_product_cases(1) if name == "ackley53"]
    for model, x in cases:
        scale = np.abs(dense_weights(model)).T @ np.abs(model.coeffs)
        up, down = model.axis_derivatives(x)
        for i in range(model.dim):
            e = np.zeros(model.dim)
            e[i] = 1.0
            assert abs(up[i] - model.directional_derivative(x, e)) <= 1e-14 * scale[i]
            assert abs(down[i] - model.directional_derivative(x, -e)) <= 1e-14 * scale[i]


def test_unit_rows_are_read_only():
    model = build_surrogate(one_cont_two_int(), np.random.default_rng(0))
    for name in ("rows", "row_of", "biases"):
        with pytest.raises(ValueError):
            getattr(model, name)[1] = 0


@pytest.mark.parametrize("attribute", ["rows", "biases"])
def test_reassigned_unit_rows_are_used_at_once(attribute):
    model = build_surrogate(one_cont_two_int(), np.random.default_rng(0))
    x = np.array([0.3, 1.0, 2.0])  # integral: integer units at their kinks
    direction = np.array([0.5, -1.0, 1.0])
    before = model.features(x)
    model.axis_derivatives(x)
    setattr(model, attribute, getattr(model, attribute) * 2.0)
    after = model.features(x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, np.maximum(dense_weights(model) @ x + model.biases, 0.0))
    assert not getattr(model, attribute).flags.writeable
    # every product, the kink terms of axis_derivatives included, follows the
    # new rows as in a model built from them
    fresh = ReluSurrogate(model.rows, model.row_of, model.biases, model.coeffs)
    for method in ("value", "gradient", "directional_derivative", "axis_derivatives"):
        expected = call(fresh, method, x, direction)
        assert bits(call(model, method, x, direction)) == bits(expected), method


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
