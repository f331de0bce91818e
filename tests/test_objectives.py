"""Tests for the benchmark objectives and the noise wrapper."""

import numpy as np
import pytest

from mvrsm.errors import DimensionMismatchError, InvalidSettingError, MvrsmError
from mvrsm.objectives import (
    BENCHMARKS,
    OBJECTIVES,
    NoisyObjective,
    ackley,
    benchmark_problem,
    make_benchmark,
    make_objective,
    rosenbrock,
)
from mvrsm.space import MixedPoint, SearchSpace, VariableSpec


def test_ackley_zero_at_origin():
    for d in (1, 2, 10, 53):
        assert abs(ackley(np.zeros(d))) < 1e-12


def test_ackley_single_coordinate_value():
    # at x = (1): rms = 1 and cos(2 pi) = 1, so the exponential terms reduce
    # to 20 - 20 exp(-0.2) after the constants cancel
    oracle = 20.0 - 20.0 * np.exp(-0.2)
    assert ackley(np.array([1.0])) == pytest.approx(oracle, rel=1e-12)


def test_ackley_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(-30, 30, rng.integers(1, 20))
        assert ackley(x) >= -1e-12


def test_ackley_rejects_empty_input():
    with pytest.raises(DimensionMismatchError):
        ackley(np.array([]))


def test_rosenbrock_zero_at_ones():
    for d in (2, 10, 238):
        assert rosenbrock(np.ones(d)) == 0.0


def test_rosenbrock_hand_value():
    # (0, 0): 100 (0 - 0)^2 + (0 - 1)^2 = 1
    assert rosenbrock(np.zeros(2)) == 1.0


def test_rosenbrock_scaled_value_at_origin():
    # 237 unit terms, scaled down by the benchmark's objective
    _, obj = make_benchmark("rosenbrock238", noise_high=0.0)
    at_zero = obj(MixedPoint(xc=np.zeros(119), xd=np.zeros(119)))
    assert at_zero == pytest.approx(237.0 / 50_000.0, rel=1e-12)


def test_rosenbrock_needs_two_coordinates():
    with pytest.raises(DimensionMismatchError):
        rosenbrock(np.array([1.0]))


def constant_point():
    return MixedPoint(xc=np.array([]), xd=np.array([0.0]))


def test_noise_wrapper_offsets_within_band():
    obj = NoisyObjective(lambda p: 7.0, rng=np.random.default_rng(1), noise_high=1e-6)
    values = np.array([obj(constant_point()) for _ in range(10_000)])
    assert np.all(values >= 7.0)
    assert np.all(values < 7.0 + 1e-6)
    # uniform noise averages to half the band
    assert abs(values.mean() - 7.0 - 5e-7) < 0.1 * 5e-7


def test_noise_free_wrapper_is_exact():
    obj = NoisyObjective(lambda p: 3.25, noise_high=0.0)
    assert obj(constant_point()) == 3.25


def test_negative_noise_band_rejected():
    with pytest.raises(ValueError):
        NoisyObjective(lambda p: 0.0, noise_high=-1e-9)


@pytest.mark.parametrize("noise_high", [float("nan"), float("inf")])
def test_non_finite_noise_band_rejected(noise_high):
    # NaN would switch the noise off (nan > 0 is False); inf would overflow
    # at the first evaluation
    with pytest.raises(ValueError, match="noise_high"):
        NoisyObjective(lambda p: 0.0, noise_high=noise_high)


@pytest.mark.parametrize(
    "noise_high",
    [
        pytest.param(True, id="bool"),
        pytest.param("1e-6", id="string"),
        # float(10**400) raises OverflowError
        pytest.param(10**400, id="int-beyond-float"),
    ],
)
def test_noise_band_must_be_a_finite_real_number(noise_high):
    with pytest.raises(InvalidSettingError, match="noise_high") as err:
        NoisyObjective(lambda p: 0.0, noise_high=noise_high)
    assert err.value.field == "noise_high"


def test_make_objective_rejects_an_unknown_name():
    space, _ = make_benchmark("rosenbrock10")
    with pytest.raises(MvrsmError, match="unknown objective") as err:
        make_objective(space, "sphere", 1.0, None, 0.0)
    assert not isinstance(err.value, KeyError) and err.value.field == "name"


@pytest.mark.parametrize("name", [["ackley"], {"ackley": 1}], ids=["list", "dict"])
def test_make_objective_rejects_an_unhashable_name(name):
    space, _ = make_benchmark("rosenbrock10")
    with pytest.raises(InvalidSettingError, match="unknown objective") as err:
        make_objective(space, name, 1.0, None, 0.0)
    assert err.value.field == "name"


@pytest.mark.parametrize(
    "scale",
    [
        pytest.param(0, id="zero"),
        pytest.param(-1, id="negative"),
        pytest.param(float("nan"), id="nan"),
        pytest.param(float("inf"), id="inf"),
        pytest.param(True, id="bool"),
        pytest.param(10**400, id="int-beyond-float"),
    ],
)
def test_make_objective_scale_must_be_a_positive_finite_real_number(scale):
    space, _ = make_benchmark("rosenbrock10")
    with pytest.raises(InvalidSettingError, match="scale") as err:
        make_objective(space, "rosenbrock", scale, None, 0.0)
    assert err.value.field == "scale"


def test_make_objective_rejects_a_space_too_small_for_the_objective():
    space = SearchSpace((VariableSpec("integer", 0, 4),))
    with pytest.raises(InvalidSettingError, match="rosenbrock needs >= 2") as err:
        make_objective(space, "rosenbrock", 1.0, None, 0.0)
    assert err.value.field == "name"
    make_objective(space, "ackley", 1.0, None, 0.0)  # ackley is defined on one coordinate


def test_noise_stream_is_reproducible():
    a = NoisyObjective(lambda p: 0.0, rng=np.random.default_rng(5))
    b = NoisyObjective(lambda p: 0.0, rng=np.random.default_rng(5))
    assert [a(constant_point()) for _ in range(50)] == [
        b(constant_point()) for _ in range(50)
    ]


def test_benchmark_catalogue():
    assert set(BENCHMARKS) == {"ackley53", "rosenbrock10", "rosenbrock238"}
    with pytest.raises(InvalidSettingError):
        make_benchmark("sphere")
    for name in BENCHMARKS:
        space, objective, scale = benchmark_problem(name)
        assert objective in OBJECTIVES and scale > 0
        # every call builds a new space, so a caller may patch its instance
        assert benchmark_problem(name)[0] is not space


def test_ackley53_layout_and_minimum():
    space, obj = make_benchmark("ackley53", rng=np.random.default_rng(0))
    assert space.n_integer == 50
    assert space.n_continuous == 3
    assert np.all(space.integer_lower == 0) and np.all(space.integer_upper == 1)
    assert np.all(space.continuous_lower == -1.0)
    assert np.all(space.continuous_upper == 1.0)
    at_origin = obj(MixedPoint(xc=np.zeros(3), xd=np.zeros(50)))
    assert 0.0 <= at_origin < 1e-6


def test_rosenbrock10_layout_and_scale():
    space, obj = make_benchmark("rosenbrock10", rng=np.random.default_rng(0))
    assert space.n_integer == 3
    assert space.n_continuous == 7
    assert np.all(space.integer_lower == -2) and np.all(space.integer_upper == 2)
    at_ones = obj(MixedPoint(xc=np.ones(7), xd=np.ones(3)))
    assert 0.0 <= at_ones < 1e-6
    # 9 unit terms at the origin expose the 1/300 scale
    at_zero = obj(MixedPoint(xc=np.zeros(7), xd=np.zeros(3)))
    assert at_zero == pytest.approx(9.0 / 300.0, abs=2e-6)


def test_rosenbrock238_layout_and_scale():
    space, obj = make_benchmark("rosenbrock238", rng=np.random.default_rng(0))
    assert space.n_integer == 119
    assert space.n_continuous == 119
    at_ones = obj(MixedPoint(xc=np.ones(119), xd=np.ones(119)))
    assert 0.0 <= at_ones < 1e-6
    at_zero = obj(MixedPoint(xc=np.zeros(119), xd=np.zeros(119)))
    assert at_zero == pytest.approx(237.0 / 50_000.0, abs=2e-6)


def test_declared_order_feeds_raw_function():
    # the integer block is declared first, so the raw input is xd then xc
    space, obj = make_benchmark("rosenbrock10", noise_high=0.0)
    xd = np.array([2.0, -1.0, 0.0])
    xc = np.linspace(-2.0, 2.0, 7)
    expected = 1.0 / 300.0 * rosenbrock(np.concatenate([xd, xc]))
    assert obj(MixedPoint(xc=xc, xd=xd)) == expected


def test_benchmark_objectives_deterministic_under_seed():
    for name in BENCHMARKS:
        space1, obj1 = make_benchmark(name, rng=np.random.default_rng(9))
        space2, obj2 = make_benchmark(name, rng=np.random.default_rng(9))
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = space1.uniform_sample(rng)
            assert obj1(p) == obj2(p)
