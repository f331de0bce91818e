"""Tests for the recursive least squares fit.

The reference implementation ("what the numbers should be") is a dense ridge
solve: after seeing rows Phi and targets y, the coefficients must equal
c0 + (Phi^T Phi + lambda I)^{-1} Phi^T (y - Phi c0). The recursion is checked
against that oracle on random problems, on top of the closed-form single-step
cases.
"""

import tracemalloc

import numpy as np
import pytest

from mvrsm.driver import MvrsmOptimizer, OptimizerConfig
from mvrsm.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NonPositiveLambdaError,
)
from mvrsm.objectives import make_benchmark
from mvrsm.rls import _BLOCK_ROWS, RecursiveLeastSquares


def ridge_oracle(c0, lam, phi_rows, ys):
    """Batch ridge solution shrinking toward the prior coefficients c0."""
    phi = np.asarray(phi_rows, dtype=float)
    y = np.asarray(ys, dtype=float)
    m = phi.shape[1]
    resid = y - phi @ c0
    return c0 + np.linalg.solve(phi.T @ phi + lam * np.eye(m), phi.T @ resid)


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
    assert np.array_equal(fit.cov, 1e8 * np.eye(2))
    assert fit.n_updates == 0


def test_non_positive_lambda_rejected():
    with pytest.raises(NonPositiveLambdaError):
        RecursiveLeastSquares(np.zeros(2), lam=0.0)
    with pytest.raises(NonPositiveLambdaError):
        RecursiveLeastSquares(np.zeros(2), lam=-1.0)


def test_single_update_closed_form():
    # one scalar observation: c = y * P phi / (1 + phi P phi) = 2 / (1 + 1e-8)
    fit = RecursiveLeastSquares(np.zeros(1), lam=1e-8)
    fit.update(np.array([1.0]), 2.0)
    assert abs(fit.coeffs[0] - 2.0) < 1e-7
    assert fit.n_updates == 1


def test_zero_feature_vector_changes_nothing():
    fit = RecursiveLeastSquares(np.array([1.0, -1.0]), lam=1e-8)
    cov_before = fit.cov.copy()
    fit.update(np.zeros(2), 123.0)
    assert fit.coeffs.tolist() == [1.0, -1.0]
    assert np.array_equal(fit.cov, cov_before)


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
        assert np.array_equal(fit.cov, fit.cov.T)


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


@pytest.mark.parametrize("m", [1, _BLOCK_ROWS, 150, 200])
def test_blocked_downdate_equals_unblocked_rank_one_downdate(m):
    rng = np.random.default_rng(m)
    fit = RecursiveLeastSquares(np.zeros(m), lam=1e-8)
    for _ in range(3):
        fit.update(rng.normal(size=m), float(rng.normal()))
    phi = rng.normal(size=m)
    cov_phi = fit.cov @ phi
    u = cov_phi / np.sqrt(1.0 + phi @ cov_phi)
    want = fit.cov - np.outer(u, u)
    fit.update(phi, 1.0)
    assert np.array_equal(fit.cov, want)
    assert np.array_equal(fit.cov, fit.cov.T)


def test_update_allocates_no_square_temporary():
    # numpy reports its buffers to tracemalloc; allow an eighth of one M x M array
    m = 1500
    rng = np.random.default_rng(0)
    fit = RecursiveLeastSquares(np.zeros(m), lam=1e-8)
    phi = rng.normal(size=m)
    tracemalloc.start()
    try:
        fit.update(phi, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * m * np.dtype(float).itemsize / 8


@pytest.mark.parametrize("name, budget", [("ackley53", 224), ("rosenbrock10", 500)])
def test_fit_tracks_ridge_oracle_at_benchmark_size(name, budget):
    """The online fit inside a real run (M = 525 and 221) predicts what the
    dense ridge solve predicts. Raw coefficients are not compared: at
    lambda = 1e-8 they are weakly determined."""
    space, objective = make_benchmark(name, rng=np.random.default_rng([0, 1]))
    opt = MvrsmOptimizer(space, OptimizerConfig(budget=budget, rng_seed=0))
    c0 = opt.model.coeffs.copy()
    rows, ys = [], []
    for _ in range(budget):
        point = opt.ask()
        y = objective(point)
        rows.append(opt.model.features(point.flatten()))
        ys.append(y)
        opt.tell(point, y)
    phi, y = np.array(rows), np.array(ys)
    fit = opt.model.rls
    want = ridge_oracle(c0, fit.lam, phi, y)
    assert np.max(np.abs(phi @ fit.coeffs - phi @ want)) <= 1e-4 * np.max(np.abs(y))
    assert np.array_equal(fit.cov, fit.cov.T)
    assert np.linalg.eigvalsh(fit.cov).min() > 0.0
