"""Tests for the mixed search space and its point operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrsm.errors import (
    DimensionMismatchError,
    InvalidSettingError,
    MvrsmError,
    VariableError,
)
from mvrsm.space import MixedPoint, SearchSpace, VariableSpec, round_half_away


def mixed_space():
    """Two continuous on [-1, 2], three integers on {-2..2}."""
    return SearchSpace(
        (
            VariableSpec("continuous", -1.0, 2.0),
            VariableSpec("integer", -2, 2),
            VariableSpec("continuous", -1.0, 2.0),
            VariableSpec("integer", -2, 2),
            VariableSpec("integer", -2, 2),
        )
    )


# -- rounding -------------------------------------------------------------


def test_round_half_away_ties():
    assert round_half_away(np.array([0.5, 1.5, 2.5])).tolist() == [1.0, 2.0, 3.0]
    assert round_half_away(np.array([-0.5, -1.5, -2.5])).tolist() == [-1.0, -2.0, -3.0]


def test_round_half_away_plain_cases():
    x = np.array([0.0, 0.49, -0.49, 2.4, -2.4, 2.6, -2.6])
    assert round_half_away(x).tolist() == [0.0, 0.0, -0.0, 2.0, -2.0, 3.0, -3.0]


@given(st.floats(min_value=-1e9, max_value=1e9))
def test_round_half_away_is_a_nearest_integer(x):
    r = float(round_half_away(np.array([x]))[0])
    assert r == int(r)
    assert abs(r - x) <= 0.5


# -- validation -----------------------------------------------------------


def test_empty_space_rejected():
    with pytest.raises(InvalidSettingError) as err:
        SearchSpace(())
    assert err.value.field == "variables"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError) as err:
        SearchSpace((VariableSpec("integer", 0, 1), VariableSpec("categorical", 0, 1)))
    assert isinstance(err.value, MvrsmError) and err.value.index == 1


def test_inverted_bounds_rejected():
    with pytest.raises(VariableError) as err:
        SearchSpace((VariableSpec("integer", 3, 1),))
    assert err.value.index == 0


def test_non_finite_bounds_rejected():
    with pytest.raises(VariableError):
        SearchSpace((VariableSpec("integer", 0, np.inf),))


@pytest.mark.parametrize(
    "lower, upper, named",
    [
        pytest.param(0, np.inf, "upper bound inf", id="inf-upper"),
        pytest.param(np.nan, 4, "lower bound nan", id="nan-lower"),
        pytest.param(0, 10**400, "upper bound (an int of 401 digits)", id="int-beyond-float"),
    ],
)
def test_non_finite_bound_message_names_the_bound(lower, upper, named):
    # an inversion and a non-finite bound share a class; the message must say which
    with pytest.raises(VariableError) as err:
        SearchSpace((VariableSpec("continuous", lower, upper), VariableSpec("integer", 0, 1)))
    message = str(err.value)
    assert "not finite" in message and named in message
    assert ">" not in message
    assert err.value.index == 0


@pytest.mark.parametrize("kind", ["continuous", "integer"])
@pytest.mark.parametrize(
    "lower, upper",
    [
        pytest.param("0", 4, id="string-lower"),
        pytest.param(0, "4", id="string-upper"),
        pytest.param(False, True, id="bool"),
        pytest.param(0, np.True_, id="numpy-bool"),
        pytest.param(np.nan, 4, id="nan-lower"),
        pytest.param(0, np.nan, id="nan-upper"),
        pytest.param(0, 10**400, id="int-beyond-float"),
    ],
)
def test_malformed_bound_rejected_with_its_index(kind, lower, upper):
    with pytest.raises(VariableError) as err:
        SearchSpace((VariableSpec("integer", 0, 1), VariableSpec(kind, lower, upper)))
    assert isinstance(err.value, MvrsmError)
    assert err.value.index == 1


def test_non_integer_bound_rejected():
    with pytest.raises(VariableError) as err:
        SearchSpace(
            (VariableSpec("continuous", 0, 1), VariableSpec("integer", 0, 1.5))
        )
    assert err.value.index == 1


@pytest.mark.parametrize(
    "lower, upper",
    [
        pytest.param(0, 1e20, id="float-upper"),
        pytest.param(-(2**53) - 2, 0, id="int-lower"),
        pytest.param(0, 10**30, id="int-upper-beyond-float-integers"),
    ],
)
def test_integer_bound_beyond_2_53_rejected(lower, upper):
    # beyond 2**53 not every integer is a float, and sampling such a range
    # overflowed numpy's int64 bounds
    with pytest.raises(VariableError, match=r"beyond 2\*\*53") as err:
        SearchSpace((VariableSpec("integer", lower, upper), VariableSpec("continuous", 0, 1)))
    assert err.value.index == 0


def test_integer_bounds_at_2_53_are_sampled():
    space = SearchSpace(
        (VariableSpec("integer", -(2**53), 2**53), VariableSpec("continuous", 0, 1))
    )
    point = space.uniform_sample(np.random.default_rng(0))
    assert space.contains(point) and space.is_integral(point)


def test_purely_continuous_space_rejected():
    with pytest.raises(InvalidSettingError) as err:
        SearchSpace((VariableSpec("continuous", 0, 1),))
    assert err.value.field == "variables"


def test_pinned_integer_variable_allowed():
    space = SearchSpace((VariableSpec("integer", 1, 1),))
    assert space.integer_lower.tolist() == [1.0]
    assert space.integer_upper.tolist() == [1.0]


# -- layout ---------------------------------------------------------------


def test_block_layout_follows_declaration_order():
    space = mixed_space()
    assert space.n_continuous == 2
    assert space.n_integer == 3
    assert space.dim == 5
    assert space.continuous_positions.tolist() == [0, 2]
    assert space.integer_positions.tolist() == [1, 3, 4]
    assert space.lower.tolist() == [-1, -1, -2, -2, -2]
    assert space.upper.tolist() == [2, 2, 2, 2, 2]


def test_declared_values_scatters_blocks_back():
    space = mixed_space()
    p = MixedPoint(np.array([0.5, 1.5]), np.array([-2.0, 0.0, 2.0]))
    assert space.declared_values(p).tolist() == [0.5, -2.0, 1.5, 0.0, 2.0]


def test_flatten_unflatten_round_trip():
    space = mixed_space()
    p = MixedPoint(np.array([0.1, 0.2]), np.array([1.0, -1.0, 0.0]))
    q = space.unflatten(p.flatten())
    assert np.array_equal(q.xc, p.xc)
    assert np.array_equal(q.xd, p.xd)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        mixed_space().unflatten(np.zeros(4))


def test_point_block_shapes_checked():
    space = mixed_space()
    with pytest.raises(DimensionMismatchError):
        space.contains(MixedPoint(np.zeros(1), np.zeros(3)))


# -- predicates and projection ---------------------------------------------


def test_contains_and_is_integral():
    space = mixed_space()
    inside = MixedPoint(np.array([0.0, 0.0]), np.array([0.0, 1.0, -2.0]))
    assert space.contains(inside)
    assert space.is_integral(inside)
    assert not space.contains(MixedPoint(np.array([5.0, 0.0]), np.array([0.0, 0.0, 0.0])))
    assert not space.is_integral(MixedPoint(np.array([0.0, 0.0]), np.array([0.5, 0.0, 0.0])))


def test_project_rounds_then_clips():
    space = mixed_space()
    p = MixedPoint(np.array([-7.0, 7.0]), np.array([1.5, -1.5, 6.7]))
    q = space.project(p)
    assert q.xc.tolist() == [-1.0, 2.0]
    assert q.xd.tolist() == [2.0, -2.0, 2.0]


@st.composite
def random_points(draw):
    xc = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=2,
        )
    )
    xd = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    return MixedPoint(np.array(xc), np.array(xd))


@given(random_points())
def test_project_lands_in_bounds_integral_and_is_idempotent(p):
    space = mixed_space()
    q = space.project(p)
    assert space.contains(q)
    assert space.is_integral(q)
    r = space.project(q)
    assert np.array_equal(r.xc, q.xc)
    assert np.array_equal(r.xd, q.xd)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_uniform_samples_are_in_bounds_and_integral(seed):
    space = mixed_space()
    p = space.uniform_sample(np.random.default_rng(seed))
    assert space.contains(p)
    assert space.is_integral(p)


def test_uniform_sample_covers_integer_range_ends():
    space = SearchSpace((VariableSpec("integer", 0, 2),))
    rng = np.random.default_rng(0)
    seen = {float(space.uniform_sample(rng).xd[0]) for _ in range(200)}
    assert seen == {0.0, 1.0, 2.0}
