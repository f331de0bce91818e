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
)
from mvrsm.errors import (
    InvalidSettingError,
    MalformedTraceError,
    NonFiniteError,
    ObjectiveFailureError,
    ProtocolViolationError,
)
from mvrsm.space import MixedPoint, SearchSpace, VariableSpec
from handbuilt import trace_array, value_at


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
    trace = MvrsmOptimizer(small_space(), config).run(quadratic)
    expected = MvrsmOptimizer(small_space(), OptimizerConfig(26, 24, 3, 2)).run(quadratic)
    np.testing.assert_array_equal(trace_array(trace, "y"), trace_array(expected, "y"))


def test_the_cap_reaches_every_descent(monkeypatch):
    descents = []
    minimize = driver.minimize

    def recording(*args, **kwargs):
        result = minimize(*args, **kwargs)
        descents.append(result.iterations)
        return result

    monkeypatch.setattr(driver, "minimize", recording)
    # point 25 is the best of the 24 draws; points 26 to 40 are descents
    MvrsmOptimizer(small_space(), OptimizerConfig(budget=40, rng_seed=1)).run(quadratic)
    assert len(descents) == 40 - 24 - 1 and max(descents) > 1
    descents.clear()
    capped = OptimizerConfig(budget=40, rng_seed=1, max_iters=1)
    MvrsmOptimizer(small_space(), capped).run(quadratic)
    assert len(descents) == 40 - 24 - 1 and max(descents) == 1


def test_budget_equal_to_init_is_pure_random_phase():
    space = small_space()
    cfg = OptimizerConfig(budget=24, init_samples=24, rng_seed=1)
    trace = MvrsmOptimizer(space, cfg).run(quadratic)
    assert len(trace) == 24
    ys = trace_array(trace, "y")
    np.testing.assert_array_equal(trace_array(trace, "best_y"), np.minimum.accumulate(ys))
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
    trace = MvrsmOptimizer(space, cfg).run(quadratic)
    assert len(trace) == 60
    for record in trace.records:
        assert space.contains(record.point)
        assert space.is_integral(record.point)


def test_best_curve_non_increasing_and_indices_one_based():
    space = small_space()
    trace = MvrsmOptimizer(space, OptimizerConfig(budget=40, rng_seed=3)).run(quadratic)
    curve = trace_array(trace, "best_y")
    assert np.all(np.diff(curve) <= 0)
    assert [r.index for r in trace.records] == list(range(1, 41))
    assert curve[-1] == min(r.y for r in trace.records)


def test_identical_seeds_reproduce_trace():
    space = small_space()
    cfg = OptimizerConfig(budget=50, rng_seed=7)
    a = MvrsmOptimizer(space, cfg).run(quadratic)
    b = MvrsmOptimizer(space, cfg).run(quadratic)
    np.testing.assert_array_equal(trace_array(a, "y"), trace_array(b, "y"))
    np.testing.assert_array_equal(trace_array(a, "best_y"), trace_array(b, "best_y"))
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
def test_ask_refuses_once_the_budget_is_told(session_class):
    space = small_space()
    cfg = OptimizerConfig(budget=30, init_samples=5, rng_seed=2)
    opt = session_class(space, cfg)
    for _ in range(cfg.budget):
        point = opt.ask()
        opt.tell(point, quadratic(point))
    for _ in range(2):
        with pytest.raises(ProtocolViolationError, match="budget"):
            opt.ask()
    with pytest.raises(ProtocolViolationError):
        opt.tell(point, quadratic(point))
    # the hand-driven trace is the run's, record for record
    reference = session_class(space, cfg).run(quadratic)
    assert len(opt.trace) == len(reference) == cfg.budget
    np.testing.assert_array_equal(trace_array(opt.trace, "y"), trace_array(reference, "y"))


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
    np.testing.assert_array_equal(trace_array(opt.trace, "y"), trace_array(reference, "y"))
    for ra, rb in zip(opt.trace.records, reference.records):
        np.testing.assert_array_equal(ra.point.flatten(), rb.point.flatten())


@pytest.mark.parametrize("session_class", SESSIONS)
def test_tell_rejects_a_non_finite_value(session_class):
    space = small_space()
    cfg = OptimizerConfig(budget=30, rng_seed=4)
    opt = session_class(space, cfg)
    for i in range(cfg.budget):
        point = opt.ask()
        # not finite, or not a real number: a string, a bool, an array, or an
        # int beyond the float range
        for bad in (np.nan, -np.inf, "1e3", True, np.array([2.0]), 10**400):
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
    np.testing.assert_array_equal(trace_array(opt.trace, "y"), trace_array(reference.trace, "y"))
    np.testing.assert_array_equal(
        trace_array(opt.trace, "best_y"), trace_array(reference.trace, "best_y")
    )
    for ra, rb in zip(opt.trace.records, reference.trace.records):
        np.testing.assert_array_equal(ra.point.flatten(), rb.point.flatten())
    if session_class is MvrsmOptimizer:
        np.testing.assert_array_equal(opt.model.coeffs, reference.model.coeffs)


def test_a_tell_whose_fit_update_would_overflow_changes_nothing():
    space = SearchSpace((VariableSpec("integer", 0, 4), VariableSpec("continuous", -1, 1)))
    opt = MvrsmOptimizer(space, OptimizerConfig(budget=30, init_samples=5, rng_seed=0))
    opt.tell(opt.ask(), -1.7e308)
    fit = opt.model.rls
    coeffs, n_updates = fit.coeffs.tobytes(), fit.n_updates
    u_rows = fit._downdates[:n_updates].tobytes()
    records = list(opt.trace.records)
    point = opt.ask()
    # the value is finite, but the residual it leaves overflows the coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="least squares"):
            opt.tell(point, 1.7e308)
    assert fit.coeffs.tobytes() == coeffs and fit.n_updates == n_updates
    assert fit._downdates[:n_updates].tobytes() == u_rows
    assert opt.trace.records == records
    with pytest.raises(ProtocolViolationError):
        opt.ask()


def test_a_failing_descent_fails_the_next_ask_not_the_tell():
    space = SearchSpace((VariableSpec("integer", 0, 4), VariableSpec("continuous", -1, 1)))
    opt = MvrsmOptimizer(space, OptimizerConfig(budget=30, init_samples=3, rng_seed=2))
    fit = opt.model.rls
    with np.errstate(all="ignore"):
        for y in (1.0, 2.0, 1.7e308, 0.5):
            opt.tell(opt.ask(), y)
        # the told value is recorded, and the descent from the best point fails
        assert [r.y for r in opt.trace.records] == [1.0, 2.0, 1.7e308, 0.5]
        coeffs, n_updates, records = fit.coeffs.tobytes(), fit.n_updates, list(opt.trace.records)
        assert n_updates == 4
        with pytest.raises(NonFiniteError, match="surrogate"):
            opt.ask()
    assert fit.coeffs.tobytes() == coeffs and fit.n_updates == n_updates
    assert opt.trace.records == records
    with pytest.raises(ProtocolViolationError, match="pending"):
        opt.tell(records[-1].point, 0.5)
    assert fit.n_updates == n_updates


def test_ask_tell_loop_matches_run():
    space = small_space()
    cfg = OptimizerConfig(budget=30, rng_seed=9)
    opt = MvrsmOptimizer(space, cfg)
    for _ in range(cfg.budget):
        point = opt.ask()
        opt.tell(point, quadratic(point))
    reference = MvrsmOptimizer(space, cfg).run(quadratic)
    np.testing.assert_array_equal(trace_array(opt.trace, "y"), trace_array(reference, "y"))
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
    trace = MvrsmOptimizer(space, OptimizerConfig(budget=26, rng_seed=5)).run(slow)
    # every evaluation slept 50 ms; the recorded per-step cost must not
    # contain it
    assert np.all(trace_array(trace, "step_seconds") < 0.04)


def test_random_search_baseline_properties():
    space = small_space()
    cfg = OptimizerConfig(budget=50, rng_seed=8)
    a = RandomSearch(space, cfg).run(quadratic)
    b = RandomSearch(space, cfg).run(quadratic)
    assert len(a) == 50
    for record in a.records:
        assert space.contains(record.point)
        assert space.is_integral(record.point)
    assert np.all(np.diff(trace_array(a, "best_y")) <= 0)
    np.testing.assert_array_equal(trace_array(a, "y"), trace_array(b, "y"))


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
        value_at(opt.model, r.point.flatten()) - r.y for r in opt.trace.records
    ]
    rmse = float(np.sqrt(np.mean(np.square(residuals))))
    assert rmse <= 1e-3


def test_csv_round_trip_is_exact(tmp_path):
    space = small_space()
    trace = MvrsmOptimizer(space, OptimizerConfig(budget=30, rng_seed=11)).run(quadratic)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back["iter"], np.arange(1, 31))
    np.testing.assert_array_equal(back["y"], trace_array(trace, "y"))
    np.testing.assert_array_equal(back["best_y"], trace_array(trace, "best_y"))
    np.testing.assert_array_equal(back["step_seconds"], trace_array(trace, "step_seconds"))
    coords = np.array([r.point.flatten() for r in trace.records])
    np.testing.assert_array_equal(back["coords"], coords)


def test_csv_header_layout(tmp_path):
    space = small_space()
    trace = MvrsmOptimizer(space, OptimizerConfig(budget=24, rng_seed=0)).run(quadratic)
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
    trace = MvrsmOptimizer(small_space(), OptimizerConfig(budget=26, rng_seed=3)).run(quadratic)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    expected = read_trace_csv(path)
    np.testing.assert_array_equal(
        expected["coords"], [r.point.flatten() for r in trace.records]
    )
    # an extra column, placed among the coordinates, and shuffled columns;
    # the extra column is not read, so its non-finite cells are not checked
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = ["xd1", "step_seconds", "xc0", "fit_seconds", "iter", "xd0", "y", "xc1", "best_y"]
    extra = tmp_path / "extra.csv"
    with open(extra, "w", newline="") as fh:
        writer = csv.DictWriter(fh, names)
        writer.writeheader()
        writer.writerows({**row, "fit_seconds": "nan"} for row in rows)
    back = read_trace_csv(extra)
    assert set(back) == set(expected)
    for key in expected:
        np.testing.assert_array_equal(back[key], expected[key])


@pytest.mark.parametrize(
    "column, cell",
    [
        ("iter", "nan"), ("iter", "2.5"), ("iter", "1e300"),
        ("y", "inf"), ("best_y", "-inf"), ("xd0", "nan"),
    ],
)
def test_csv_with_a_non_finite_cell_or_a_non_int64_iter_rejected(tmp_path, column, cell):
    # write_csv writes neither, so a trace holding one is not a trace
    path = tmp_path / "trace.csv"
    trace = MvrsmOptimizer(small_space(), OptimizerConfig(budget=24, rng_seed=0)).run(quadratic)
    trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[3][column] = cell
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(MalformedTraceError, match="non-finite cell or a non-int64 iter"):
        read_trace_csv(path)


def test_csv_without_a_named_column_rejected(tmp_path):
    path = tmp_path / "renamed.csv"
    path.write_text("iter,y,best,step_seconds,xc0,xd0\n1,2.0,2.0,0.1,0.5,1.0\n")
    with pytest.raises(ValueError, match="best_y"):
        read_trace_csv(path)
