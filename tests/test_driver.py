"""Tests for the run loops, ask/tell session, and trace export."""

import csv
import time

import numpy as np
import pytest

from mvrsm import driver
from mvrsm.driver import (
    MvrsmOptimizer,
    OptimizerConfig,
    RandomSearch,
    RunTrace,
    read_trace_csv,
    run_mvrsm,
    run_random_search,
)
from mvrsm.errors import (
    InvalidSettingError,
    NonFiniteError,
    ObjectiveFailureError,
    ProtocolViolationError,
)
from mvrsm.space import MixedPoint, SearchSpace, VariableSpec


def small_space():
    return SearchSpace(
        (
            VariableSpec("integer", -2, 2),
            VariableSpec("integer", 0, 3),
            VariableSpec("continuous", -1, 1),
            VariableSpec("continuous", -1, 1),
        )
    )


def quadratic(point: MixedPoint) -> float:
    x = point.flatten()
    return float(x @ x)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, init_samples=0)
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, init_samples=11)
    with pytest.raises(ValueError, match="rng_seed"):
        OptimizerConfig(budget=30, rng_seed=-1)


@pytest.mark.parametrize(
    "setting",
    [
        {"max_iters": 2.5},
        {"budget": 30.0},
        {"max_iters": True},
        {"init_samples": 24.5},
        {"rng_seed": True},
        {"budget": "30"},
        {"rng_seed": None},
    ],
    ids=lambda setting: "-".join(f"{k}={v!r}" for k, v in setting.items()),
)
def test_config_rejects_a_setting_that_is_not_an_integer(setting):
    # a float cap used to fail only at the first descent, after the initial
    # samples were paid for; a bool cap used to run as a cap of 1
    ((field, _),) = setting.items()
    with pytest.raises(InvalidSettingError, match=field) as err:
        OptimizerConfig(**{"budget": 30, **setting})
    assert isinstance(err.value, ValueError) and err.value.field == field


def test_config_accepts_numpy_integers():
    config = OptimizerConfig(
        budget=np.int64(26), init_samples=np.int32(24), rng_seed=np.uint8(3), max_iters=np.int64(2)
    )
    trace = run_mvrsm(quadratic, small_space(), config)
    expected = run_mvrsm(quadratic, small_space(), OptimizerConfig(26, 24, 3, 2))
    np.testing.assert_array_equal(trace.y_values(), expected.y_values())


def test_the_cap_reaches_every_descent(monkeypatch):
    descents = []
    minimize = driver.minimize

    def recording(*args, **kwargs):
        result = minimize(*args, **kwargs)
        descents.append(result.iterations)
        return result

    monkeypatch.setattr(driver, "minimize", recording)
    run_mvrsm(quadratic, small_space(), OptimizerConfig(budget=40, rng_seed=1))
    assert len(descents) == 40 - 24 and max(descents) > 1
    descents.clear()
    run_mvrsm(quadratic, small_space(), OptimizerConfig(budget=40, rng_seed=1, max_iters=1))
    assert len(descents) == 40 - 24 and max(descents) == 1


def test_budget_equal_to_init_is_pure_random_phase():
    space = small_space()
    cfg = OptimizerConfig(budget=24, init_samples=24, rng_seed=1)
    trace = run_mvrsm(quadratic, space, cfg)
    assert len(trace) == 24
    ys = trace.y_values()
    np.testing.assert_array_equal(trace.best_y_curve(), np.minimum.accumulate(ys))
    # the init draws match plain uniform sampling from the same stream,
    # after the seed is also spent building the surrogate
    rng = np.random.default_rng(1)
    from mvrsm.surrogate import build_surrogate

    build_surrogate(space, rng)
    for record in trace.records:
        expected = space.uniform_sample(rng)
        np.testing.assert_array_equal(record.point.flatten(), expected.flatten())


def test_all_evaluated_points_feasible():
    space = small_space()
    cfg = OptimizerConfig(budget=60, init_samples=24, rng_seed=2)
    trace = run_mvrsm(quadratic, space, cfg)
    assert len(trace) == 60
    for record in trace.records:
        assert space.contains(record.point)
        assert space.is_integral(record.point)


def test_best_curve_non_increasing_and_indices_one_based():
    space = small_space()
    trace = run_mvrsm(quadratic, space, OptimizerConfig(budget=40, rng_seed=3))
    curve = trace.best_y_curve()
    assert np.all(np.diff(curve) <= 0)
    assert [r.index for r in trace.records] == list(range(1, 41))
    assert curve[-1] == min(r.y for r in trace.records)


def test_identical_seeds_reproduce_trace():
    space = small_space()
    cfg = OptimizerConfig(budget=50, rng_seed=7)
    a = run_mvrsm(quadratic, space, cfg)
    b = run_mvrsm(quadratic, space, cfg)
    np.testing.assert_array_equal(a.y_values(), b.y_values())
    np.testing.assert_array_equal(a.best_y_curve(), b.best_y_curve())
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.point.flatten(), rb.point.flatten())


SESSIONS = [MvrsmOptimizer, RandomSearch]


@pytest.mark.parametrize("session_class", SESSIONS)
def test_ask_tell_protocol_enforced(session_class):
    opt = session_class(small_space(), OptimizerConfig(budget=30))
    with pytest.raises(ProtocolViolationError):
        opt.tell(small_space().uniform_sample(np.random.default_rng(0)), 1.0)
    point = opt.ask()
    with pytest.raises(ProtocolViolationError):
        opt.ask()
    opt.tell(point, quadratic(point))
    assert opt.ask() is not None


@pytest.mark.parametrize("session_class", SESSIONS)
def test_tell_rejects_a_point_other_than_the_pending_one(session_class):
    space = small_space()
    cfg = OptimizerConfig(budget=30, rng_seed=9)
    opt = session_class(space, cfg)
    for _ in range(cfg.budget):
        point = opt.ask()
        xd = point.xd.copy()
        xd[0] += 1.0 if xd[0] < space.integer_upper[0] else -1.0
        for other in (
            MixedPoint(point.xc + 0.25, point.xd),
            MixedPoint(point.xc, xd),
            MixedPoint(point.xc[:1], point.xd),
            point.flatten(),
        ):
            with pytest.raises(ProtocolViolationError, match="pending"):
                opt.tell(other, quadratic(other) if isinstance(other, MixedPoint) else 0.0)
        # a rejected tell records nothing, and an equal copy is accepted
        opt.tell(MixedPoint(point.xc.copy(), point.xd.copy()), quadratic(point))
    # the rejected tells left the run exactly as an undisturbed one
    reference = session_class(space, cfg).run(quadratic)
    np.testing.assert_array_equal(opt.trace.y_values(), reference.y_values())
    for ra, rb in zip(opt.trace.records, reference.records):
        np.testing.assert_array_equal(ra.point.flatten(), rb.point.flatten())


@pytest.mark.parametrize("session_class", SESSIONS)
def test_tell_rejects_a_non_finite_value(session_class):
    space = small_space()
    cfg = OptimizerConfig(budget=30, rng_seed=4)
    opt = session_class(space, cfg)
    for i in range(cfg.budget):
        point = opt.ask()
        for bad in (np.nan, -np.inf):
            with pytest.raises(NonFiniteError, match="non-finite"):
                opt.tell(point, bad)
            # nothing was recorded, and the ask is still pending
            assert len(opt.trace) == i
            with pytest.raises(ProtocolViolationError):
                opt.ask()
        opt.tell(point, quadratic(point))
    # a following finite tell gives the undisturbed run: a -inf kept as the
    # best would show in best_y, a value fed to the fit in the coefficients
    reference = session_class(space, cfg)
    reference.run(quadratic)
    np.testing.assert_array_equal(opt.trace.y_values(), reference.trace.y_values())
    np.testing.assert_array_equal(opt.trace.best_y_curve(), reference.trace.best_y_curve())
    for ra, rb in zip(opt.trace.records, reference.trace.records):
        np.testing.assert_array_equal(ra.point.flatten(), rb.point.flatten())
    if session_class is MvrsmOptimizer:
        np.testing.assert_array_equal(opt.model.coeffs, reference.model.coeffs)


def test_ask_tell_loop_matches_run_mvrsm():
    space = small_space()
    cfg = OptimizerConfig(budget=30, rng_seed=9)
    opt = MvrsmOptimizer(space, cfg)
    for _ in range(cfg.budget):
        point = opt.ask()
        opt.tell(point, quadratic(point))
    reference = run_mvrsm(quadratic, space, cfg)
    np.testing.assert_array_equal(opt.trace.y_values(), reference.y_values())
    for ra, rb in zip(opt.trace.records, reference.records):
        np.testing.assert_array_equal(ra.point.flatten(), rb.point.flatten())


def test_raising_objective_aborts_with_partial_trace():
    calls = {"n": 0}

    def flaky(point):
        calls["n"] += 1
        if calls["n"] == 10:
            raise RuntimeError("sensor offline")
        return quadratic(point)

    session = MvrsmOptimizer(small_space(), OptimizerConfig(budget=30))
    with pytest.raises(ObjectiveFailureError, match="sensor offline"):
        session.run(flaky)
    assert len(session.trace) == 9


def test_non_finite_objective_value_aborts():
    def broken(point):
        return np.inf

    session = RandomSearch(small_space(), OptimizerConfig(budget=5, init_samples=5))
    with pytest.raises(ObjectiveFailureError, match="non-finite"):
        session.run(broken)
    assert len(session.trace) == 0


def test_step_seconds_excludes_objective_time():
    def slow(point):
        time.sleep(0.05)
        return quadratic(point)

    space = small_space()
    trace = run_mvrsm(slow, space, OptimizerConfig(budget=26, rng_seed=5))
    # every evaluation slept 50 ms; the recorded per-step cost must not
    # contain it
    assert np.all(trace.step_seconds() < 0.04)


def test_random_search_baseline_properties():
    space = small_space()
    cfg = OptimizerConfig(budget=50, rng_seed=8)
    a = run_random_search(quadratic, space, cfg)
    b = run_random_search(quadratic, space, cfg)
    assert len(a) == 50
    for record in a.records:
        assert space.contains(record.point)
        assert space.is_integral(record.point)
    assert np.all(np.diff(a.best_y_curve()) <= 0)
    np.testing.assert_array_equal(a.y_values(), b.y_values())


def test_model_reproduces_observations_of_in_span_objective():
    # the objective is one of the model's own integer units plus a constant,
    # so after enough updates the fit at evaluated points is near exact
    space = small_space()

    def in_span(point: MixedPoint) -> float:
        return 2.0 * max(0.0, point.xd[0] - 1.0) + 0.5

    cfg = OptimizerConfig(budget=200, rng_seed=6)
    opt = MvrsmOptimizer(space, cfg)
    for _ in range(cfg.budget):
        point = opt.ask()
        opt.tell(point, in_span(point))
    residuals = [
        opt.model.value(r.point.flatten()) - r.y for r in opt.trace.records
    ]
    rmse = float(np.sqrt(np.mean(np.square(residuals))))
    assert rmse <= 1e-3


def test_csv_round_trip_is_exact(tmp_path):
    space = small_space()
    trace = run_mvrsm(quadratic, space, OptimizerConfig(budget=30, rng_seed=11))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back["iter"], np.arange(1, 31))
    np.testing.assert_array_equal(back["y"], trace.y_values())
    np.testing.assert_array_equal(back["best_y"], trace.best_y_curve())
    np.testing.assert_array_equal(back["step_seconds"], trace.step_seconds())
    coords = np.array([r.point.flatten() for r in trace.records])
    np.testing.assert_array_equal(back["coords"], coords)


def test_csv_header_layout(tmp_path):
    space = small_space()
    trace = run_mvrsm(quadratic, space, OptimizerConfig(budget=24, rng_seed=0))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "iter,y,best_y,step_seconds,xc0,xc1,xd0,xd1"


def test_empty_trace_refuses_to_write(tmp_path):
    with pytest.raises(ValueError):
        RunTrace().write_csv(tmp_path / "empty.csv")


def test_malformed_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iter,y,best_y,step_seconds,xc0\n1,2.0,2.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_csv_columns_are_read_by_name(tmp_path):
    trace = run_mvrsm(quadratic, small_space(), OptimizerConfig(budget=26, rng_seed=3))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    expected = read_trace_csv(path)
    np.testing.assert_array_equal(
        expected["coords"], [r.point.flatten() for r in trace.records]
    )
    # an extra column, placed among the coordinates, and shuffled columns
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = ["xd1", "step_seconds", "xc0", "fit_seconds", "iter", "xd0", "y", "xc1", "best_y"]
    extra = tmp_path / "extra.csv"
    with open(extra, "w", newline="") as fh:
        writer = csv.DictWriter(fh, names)
        writer.writeheader()
        writer.writerows({**row, "fit_seconds": "7.5"} for row in rows)
    back = read_trace_csv(extra)
    assert set(back) == set(expected)
    for key in expected:
        np.testing.assert_array_equal(back[key], expected[key])


def test_csv_without_a_named_column_rejected(tmp_path):
    path = tmp_path / "renamed.csv"
    path.write_text("iter,y,best,step_seconds,xc0,xd0\n1,2.0,2.0,0.1,0.5,1.0\n")
    with pytest.raises(ValueError, match="best_y"):
        read_trace_csv(path)
