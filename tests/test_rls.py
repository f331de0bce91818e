"""Tests for the recursive least squares fit.

The reference implementation ("what the numbers should be") is a dense ridge
solve: after seeing rows Phi and targets y, the coefficients must equal
c0 + (Phi^T Phi + lambda I)^{-1} Phi^T (y - Phi c0). The recursion is checked
against that oracle on random problems, on top of the closed-form single-step
cases. With fewer rows than coefficients the same solution is computed in
dual form, c0 + Phi^T (Phi Phi^T + lambda I)^{-1} (y - Phi c0), an n x n solve.

The fit keeps its covariance factored until M observations have arrived and
multiplies it out into a dense matrix at the next update (the fold), so the
tests below check both phases and the step between them.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from mvrsm.driver import MvrsmOptimizer, OptimizerConfig
from mvrsm.errors import (
    DimensionMismatchError,
    InvalidSettingError,
    NonFiniteError,
)
from mvrsm.objectives import make_benchmark
from mvrsm.rls import _BLOCK_ROWS, RecursiveLeastSquares
from mvrsm.space import SearchSpace, VariableSpec
from handbuilt import covariance


def ridge_oracle(c0, lam, phi_rows, ys):
    """Batch ridge solution shrinking toward the prior coefficients c0."""
    phi = np.asarray(phi_rows, dtype=float)
    y = np.asarray(ys, dtype=float)
    m = phi.shape[1]
    resid = y - phi @ c0
    return c0 + np.linalg.solve(phi.T @ phi + lam * np.eye(m), phi.T @ resid)


def dual_ridge_oracle(c0, lam, phi_rows, ys):
    """The same solution from an n x n solve; well posed when n < m."""
    phi = np.asarray(phi_rows, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = phi.shape[0]
    return c0 + phi.T @ np.linalg.solve(phi @ phi.T + lam * np.eye(n), y - phi @ c0)


def test_oracle_recovers_exact_coefficients_without_noise():
    # sanity on the oracle itself: enough clean rows pin the answer
    rng = np.random.default_rng(0)
    truth = rng.normal(size=4)
    phi = rng.normal(size=(40, 4))
    c = ridge_oracle(np.zeros(4), 1e-8, phi, phi @ truth)
    assert np.allclose(c, truth, rtol=1e-9)


def test_init_state():
    fit = RecursiveLeastSquares(np.array([1.0, 0.0]), lam=1e-8)
    assert fit.coeffs.tolist() == [1.0, 0.0]
    assert np.array_equal(covariance(fit), 1e8 * np.eye(2))
    assert fit.n_updates == 0


def test_non_positive_lambda_rejected():
    with pytest.raises(InvalidSettingError):
        RecursiveLeastSquares(np.zeros(2), lam=0.0)
    with pytest.raises(InvalidSettingError):
        RecursiveLeastSquares(np.zeros(2), lam=-1.0)


def test_single_update_closed_form():
    # one scalar observation: c = y * P phi / (1 + phi P phi) = 2 / (1 + 1e-8)
    fit = RecursiveLeastSquares(np.zeros(1), lam=1e-8)
    fit.update(np.array([1.0]), 2.0)
    assert abs(fit.coeffs[0] - 2.0) < 1e-7
    assert fit.n_updates == 1


def test_zero_feature_vector_changes_nothing():
    fit = RecursiveLeastSquares(np.array([1.0, -1.0]), lam=1e-8)
    cov_before = covariance(fit)
    fit.update(np.zeros(2), 123.0)
    assert fit.coeffs.tolist() == [1.0, -1.0]
    assert np.array_equal(covariance(fit), cov_before)


def test_matches_ridge_oracle_on_random_problems():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(m, 51))
        c0 = rng.normal(size=m)
        phi = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        fit = RecursiveLeastSquares(c0.copy(), lam=1e-8)
        for row, target in zip(phi, y):
            fit.update(row, target)
        want = ridge_oracle(c0, 1e-8, phi, y)
        assert np.linalg.norm(fit.coeffs - want) <= 1e-6 * max(np.linalg.norm(want), 1.0)


@pytest.mark.parametrize("regime", ["before_fold", "at_fold"])
def test_matches_dual_ridge_oracle_with_at_most_m_rows(regime):
    # n < m never folds; n == m is the last update before the fold
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(1, m)) if regime == "before_fold" else m
        c0 = rng.normal(size=m)
        phi = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        fit = RecursiveLeastSquares(c0.copy(), lam=1e-8)
        for row, target in zip(phi, y):
            fit.update(row, target)
        want = dual_ridge_oracle(c0, 1e-8, phi, y)
        assert np.linalg.norm(fit.coeffs - want) <= 1e-6 * max(np.linalg.norm(want), 1.0)


def test_data_order_barely_matters():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(30, 6))
    y = rng.normal(size=30)
    order = rng.permutation(30)
    a = RecursiveLeastSquares(np.zeros(6), lam=1e-8)
    b = RecursiveLeastSquares(np.zeros(6), lam=1e-8)
    for i in range(30):
        a.update(phi[i], y[i])
        b.update(phi[order[i]], y[order[i]])
    assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-6 * np.linalg.norm(a.coeffs)


def test_covariance_stays_exactly_symmetric():
    rng = np.random.default_rng(11)
    fit = RecursiveLeastSquares(np.zeros(5), lam=1e-8)
    for _ in range(50):
        fit.update(rng.normal(size=5), float(rng.normal()))
        cov = covariance(fit)
        assert np.array_equal(cov, cov.T)


def test_coefficients_alias_the_caller_array():
    c = np.array([1.0, 1.0])
    fit = RecursiveLeastSquares(c, lam=1e-8)
    fit.update(np.array([1.0, 0.0]), 5.0)
    assert c[0] == fit.coeffs[0] != 1.0


def test_dimension_mismatch_rejected():
    fit = RecursiveLeastSquares(np.zeros(3), lam=1e-8)
    with pytest.raises(DimensionMismatchError):
        fit.update(np.zeros(2), 1.0)


def test_non_finite_inputs_rejected():
    fit = RecursiveLeastSquares(np.zeros(2), lam=1e-8)
    with pytest.raises(NonFiniteError):
        fit.update(np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(NonFiniteError):
        fit.update(np.zeros(2), np.inf)


def test_an_indefinite_covariance_is_reported_before_any_state_changes():
    # features of order 1e4 against lam = 1e-8: at the 11th observation of this
    # run rounding makes 1 + phi^T P phi negative (-0.804 under OpenBLAS),
    # where the update would apply a gain of the wrong sign and store a NaN
    # downdate row
    space = SearchSpace(
        (
            VariableSpec("integer", 0, 4),
            VariableSpec("continuous", -1e4, 1e4),
            VariableSpec("continuous", -1e4, 1e4),
        )
    )
    optimizer = MvrsmOptimizer(space, OptimizerConfig(budget=20, init_samples=10, rng_seed=0))

    def tell_next():
        point = optimizer.ask()
        optimizer.tell(point, float(np.sum((point.flatten() / 1e4) ** 2)))

    for _ in range(10):
        tell_next()
    fit = optimizer.model.rls

    def state():
        return fit.coeffs.tobytes(), fit.n_updates, fit._downdates[: fit.n_updates].tobytes()

    before = state()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"observation 11: .* max \|phi\| = "):
            tell_next()
    assert state() == before


@pytest.mark.parametrize("m", [1, _BLOCK_ROWS, 150, 200])
def test_blocked_downdate_equals_unblocked_rank_one_downdate(m):
    rng = np.random.default_rng(m)
    fit = RecursiveLeastSquares(np.zeros(m), lam=1e-8)
    # past m updates the covariance has been folded into the dense matrix
    for _ in range(m + 3):
        fit.update(rng.normal(size=m), float(rng.normal()))
    phi = rng.normal(size=m)
    cov = covariance(fit)
    cov_phi = cov @ phi
    u = cov_phi / np.sqrt(1.0 + phi @ cov_phi)
    want = cov - np.outer(u, u)
    fit.update(phi, 1.0)
    cov = covariance(fit)
    assert np.array_equal(cov, want)
    assert np.array_equal(cov, cov.T)


def test_update_allocates_no_square_temporary():
    # numpy reports its buffers to tracemalloc; allow an eighth of one M x M array
    m = 1500
    rng = np.random.default_rng(0)
    fit = RecursiveLeastSquares(np.zeros(m), lam=1e-8)
    # fold first (at update m + 1), so the traced update is a dense downdate
    for _ in range(m + 1):
        fit.update(rng.normal(size=m), 0.0)
    phi = rng.normal(size=m)
    tracemalloc.start()
    try:
        fit.update(phi, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * m * np.dtype(float).itemsize / 8


def test_construction_and_few_updates_allocate_no_square_matrix():
    # rosenbrock238's basis size and budget; allow an eighth of one M x M array
    m = 6629
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(8, m))
    tracemalloc.start()
    try:
        fit = RecursiveLeastSquares(np.zeros(m), lam=1e-8)
        for row in rows:
            fit.update(row, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.n_updates == 8
    assert peak < m * m * np.dtype(float).itemsize / 8


@pytest.mark.parametrize("m", [1, 30])
def test_fold_keeps_the_covariance_symmetric_definite_and_the_fit_exact(m):
    rng = np.random.default_rng(m)
    c0 = rng.normal(size=m)
    phi = rng.normal(size=(m + 1, m))
    y = rng.normal(size=m + 1)
    fit = RecursiveLeastSquares(c0.copy(), lam=1e-8)
    for row, target in zip(phi[:m], y[:m]):
        fit.update(row, target)
    factored = covariance(fit)
    # a zero row downdates by zero, so this update leaves exactly the folded matrix
    fit.update(np.zeros(m), 0.0)
    folded = covariance(fit)
    assert np.array_equal(folded, factored)
    assert np.array_equal(folded, folded.T)
    assert np.linalg.eigvalsh(folded).min() > 0.0
    fit.update(phi[m], y[m])
    cov = covariance(fit)
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > 0.0
    want = ridge_oracle(c0, 1e-8, phi, y)
    assert np.max(np.abs(phi @ fit.coeffs - phi @ want)) <= 1e-6 * np.max(np.abs(y))


@pytest.mark.parametrize(
    "name, budget, init_samples",
    [
        pytest.param("ackley53", 224, 24, id="ackley53-224"),
        pytest.param("rosenbrock10", 500, 24, id="rosenbrock10-500"),
        pytest.param("rosenbrock238", 8, 4, id="rosenbrock238-8"),
    ],
)
def test_fit_tracks_ridge_oracle_at_benchmark_size(name, budget, init_samples):
    """The online fit inside a real run (M = 525, 221 and 6629) predicts what
    the batch ridge solve predicts. Raw coefficients are not compared: at
    lambda = 1e-8 they are weakly determined."""
    space, objective = make_benchmark(name, rng=np.random.default_rng([0, 1]))
    config = OptimizerConfig(budget=budget, init_samples=init_samples, rng_seed=0)
    opt = MvrsmOptimizer(space, config)
    c0 = opt.model.coeffs.copy()
    rows, ys = [], []
    for _ in range(budget):
        point = opt.ask()
        y = objective(point)
        rows.append(opt.model.features(opt.model.preactivations(point.flatten())))
        ys.append(y)
        opt.tell(point, y)
    phi, y = np.array(rows), np.array(ys)
    fit = opt.model.rls
    # at M = 6629 the primal solve and the multiplied-out cov would each take
    # 350 MB, so rosenbrock238 checks predictions against the dual solve only
    large = name == "rosenbrock238"
    want = (dual_ridge_oracle if large else ridge_oracle)(c0, fit.lam, phi, y)
    assert np.max(np.abs(phi @ fit.coeffs - phi @ want)) <= 1e-4 * np.max(np.abs(y))
    if large:
        return
    cov = covariance(fit)
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > 0.0
