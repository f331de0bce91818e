"""Tests for the exploration moves around the surrogate minimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvrsm.errors import NonIntegralInputError
from mvrsm.explore import MAX_STEPS, perturb_continuous, perturb_integer
from mvrsm.space import SearchSpace, VariableSpec


class ScriptedRng:
    """Stand-in generator: .random() pops scripted draws, .normal() records."""

    def __init__(self, uniforms=(), normals=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)
        self.normal_calls = []

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        count = int(np.prod(size))
        draws, self.uniforms = self.uniforms[:count], self.uniforms[count:]
        return np.array(draws, dtype=float).reshape(size)

    def normal(self, loc, scale):
        self.normal_calls.append((loc, np.array(scale, dtype=float)))
        if self.normals:
            return np.asarray(self.normals.pop(0), dtype=float)
        return np.zeros_like(np.asarray(scale, dtype=float))


def ints(*bounds):
    return SearchSpace(tuple(VariableSpec("integer", lo, up) for lo, up in bounds))


def test_no_step_when_first_draw_at_or_above_threshold():
    space = ints((0, 5), (0, 5))  # dim 2, p = 0.5
    rng = ScriptedRng([0.9, 0.1, 0.5, 0.1])  # r1 = 0.5 is not < p either
    out = perturb_integer(space, np.array([2.0, 3.0]), rng)
    np.testing.assert_array_equal(out, [2.0, 3.0])


def test_lower_bound_forces_step_up():
    space = ints((0, 5))  # dim 1, p = 1
    rng = ScriptedRng([0.6, 0.9])  # direction draw says down, bound says up
    out = perturb_integer(space, np.array([0.0]), rng)
    assert out[0] == 1.0


def test_upper_bound_forces_step_down():
    space = ints((0, 5))
    rng = ScriptedRng([0.6, 0.1])  # direction draw says up, bound says down
    out = perturb_integer(space, np.array([5.0]), rng)
    assert out[0] == 4.0


def test_interior_direction_follows_second_draw():
    space = ints((0, 10))
    up = perturb_integer(space, np.array([2.0]), ScriptedRng([0.6, 0.3]))
    down = perturb_integer(space, np.array([2.0]), ScriptedRng([0.6, 0.7]))
    assert up[0] == 3.0
    assert down[0] == 1.0


def test_small_first_draw_steps_repeatedly():
    # r1 doubles after each step, so r1 = 0.3 with p = 1 yields two steps
    space = ints((0, 10))
    out = perturb_integer(space, np.array([5.0]), ScriptedRng([0.3, 0.3]))
    assert out[0] == 7.0


def test_direction_reverses_at_bound_mid_walk():
    # three steps from 2 in {0..3}: up to the bound, forced down, up again
    space = ints((0, 3))
    out = perturb_integer(space, np.array([2.0]), ScriptedRng([0.125, 0.3]))
    assert out[0] == 3.0


def test_pinned_variable_consumes_draws_without_moving():
    space = ints((3, 3), (0, 10))  # dim 2, p = 0.5
    rng = ScriptedRng([0.1, 0.9, 0.3, 0.3])
    out = perturb_integer(space, np.array([3.0, 5.0]), rng)
    # if the pinned variable's two draws were skipped, the second variable
    # would see r1 = 0.1, r2 = 0.9 and walk down to 2 instead
    np.testing.assert_array_equal(out, [3.0, 6.0])
    assert rng.uniforms == []


def test_zero_draw_is_capped():
    # r1 = 0.0 never doubles past p; the cap keeps the walk finite
    space = ints((0, 200))
    out = perturb_integer(space, np.array([50.0]), ScriptedRng([0.0, 0.3]))
    assert out[0] == 50.0 + MAX_STEPS


def test_non_integral_input_rejected():
    space = ints((0, 5))
    with pytest.raises(NonIntegralInputError):
        perturb_integer(space, np.array([1.5]), np.random.default_rng(0))


def test_input_array_not_mutated():
    space = ints((0, 10))
    xd = np.array([5.0])
    perturb_integer(space, xd, ScriptedRng([0.3, 0.3]))
    assert xd[0] == 5.0


def test_walk_stays_integral_and_in_bounds():
    space = SearchSpace(
        (
            VariableSpec("continuous", -1, 1),
            VariableSpec("integer", -3, 3),
            VariableSpec("integer", 0, 1),
            VariableSpec("integer", 2, 2),
        )
    )
    rng = np.random.default_rng(7)
    for _ in range(500):
        xd = space.uniform_sample(rng).xd
        out = perturb_integer(space, xd, rng)
        assert np.all(out >= space.integer_lower)
        assert np.all(out <= space.integer_upper)
        assert np.all(out == np.floor(out))
        assert out[2] == 2.0  # pinned stays pinned


def test_step_probability_tracks_one_over_dim():
    space = ints(*[(0, 100)] * 5)  # p = 0.2, starts far from both bounds
    rng = np.random.default_rng(11)
    trials = 4000
    moved = 0
    for _ in range(trials):
        out = perturb_integer(space, np.full(5, 50.0), rng)
        moved += int(np.sum(out != 50.0))
    rate = moved / (trials * 5)
    se = np.sqrt(0.2 * 0.8 / (trials * 5))
    assert abs(rate - 0.2) < 4 * se


def reference_perturb_integer(space, xd, rng):
    """The walk drawing its two uniforms per coordinate as scalar calls."""
    out = np.asarray(xd, dtype=float).copy()
    p = 1.0 / space.dim
    lower, upper = space.integer_lower, space.integer_upper
    for i in range(space.n_integer):
        r1 = rng.random()
        r2 = rng.random()
        steps = 0
        while r1 < p and lower[i] < upper[i] and steps < MAX_STEPS:
            if out[i] == lower[i]:
                out[i] += 1
            elif out[i] == upper[i]:
                out[i] -= 1
            elif r2 < 0.5:
                out[i] += 1
            else:
                out[i] -= 1
            r1 *= 2.0
            steps += 1
    return out


@settings(max_examples=200, deadline=None)
@given(
    n_continuous=st.integers(0, 3),
    half_widths=st.lists(st.integers(0, 2), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_walk_matches_scalar_draws_bit_for_bit(n_continuous, half_widths, seed, data):
    # dims of 1-11 make p = 1/dim large enough that many coordinates walk;
    # half-width 0 pins a variable
    variables = [VariableSpec("continuous", -1, 1)] * n_continuous + [
        VariableSpec("integer", -h, h) for h in half_widths
    ]
    space = SearchSpace(tuple(variables))
    bounds = zip(space.integer_lower.astype(int), space.integer_upper.astype(int))
    xd = np.array([data.draw(st.integers(int(lo), int(up))) for lo, up in bounds], dtype=float)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):  # consecutive calls share the stream
        out = perturb_integer(space, xd, rng)
        expected = reference_perturb_integer(space, xd, reference)
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
        xd = out


def test_continuous_noise_scale_formula():
    space = SearchSpace(
        (
            VariableSpec("continuous", 0, 1),
            VariableSpec("continuous", -2, 6),
            VariableSpec("integer", 0, 1),
            VariableSpec("integer", 0, 1),
        )
    )
    rng = ScriptedRng()
    out = perturb_continuous(space, np.array([0.5, 0.5]), rng)
    (loc, scale), = rng.normal_calls
    assert loc == 0.0
    np.testing.assert_allclose(scale, [0.1 * 1 / 2.0, 0.1 * 8 / 2.0])
    np.testing.assert_array_equal(out, [0.5, 0.5])  # zero noise from the stub


def test_continuous_clips_to_box():
    space = SearchSpace(
        (VariableSpec("continuous", 0, 1), VariableSpec("integer", 0, 1))
    )
    rng = ScriptedRng(normals=[np.array([100.0])])
    out = perturb_continuous(space, np.array([0.5]), rng)
    assert out[0] == 1.0


def test_no_continuous_block_is_a_noop_copy():
    space = ints((0, 5))
    xc = np.array([])
    out = perturb_continuous(space, xc, ScriptedRng())
    assert out.shape == (0,)
    assert out is not xc


def test_degenerate_continuous_range_never_moves():
    space = SearchSpace(
        (VariableSpec("continuous", 2, 2), VariableSpec("integer", 0, 1))
    )
    rng = np.random.default_rng(3)
    for _ in range(20):
        out = perturb_continuous(space, np.array([2.0]), rng)
        assert out[0] == 2.0


def test_continuous_sample_std_matches_sigma():
    # wide box so clipping never bites
    space = SearchSpace(
        (VariableSpec("continuous", -1e6, 1e6), VariableSpec("integer", 0, 1))
    )
    sigma = 0.1 * 2e6 / np.sqrt(2)
    rng = np.random.default_rng(19)
    draws = np.array(
        [perturb_continuous(space, np.array([0.0]), rng)[0] for _ in range(20000)]
    )
    assert abs(draws.std(ddof=1) - sigma) / sigma < 0.03


def test_both_moves_deterministic_under_seed():
    space = SearchSpace(
        (
            VariableSpec("continuous", -1, 1),
            VariableSpec("integer", -5, 5),
            VariableSpec("integer", 0, 3),
        )
    )
    a_int = perturb_integer(space, np.array([0.0, 1.0]), np.random.default_rng(5))
    b_int = perturb_integer(space, np.array([0.0, 1.0]), np.random.default_rng(5))
    np.testing.assert_array_equal(a_int, b_int)
    a_cont = perturb_continuous(space, np.array([0.2]), np.random.default_rng(5))
    b_cont = perturb_continuous(space, np.array([0.2]), np.random.default_rng(5))
    np.testing.assert_array_equal(a_cont, b_cont)
