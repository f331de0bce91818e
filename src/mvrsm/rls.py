"""Recursive least squares with ridge shrinkage toward prior coefficients.

With prior c0 and regulariser lam, after feeding rows (phi_t, y_t) the
coefficients equal the batch ridge solution

    c = c0 + (Phi^T Phi + lam I)^{-1} Phi^T (y - Phi c0)

up to floating point, with unit forgetting (all rows weighted equally).
The covariance P = (Phi^T Phi + lam I)^{-1} takes a symmetric rank-one
downdate P -= u u^T per observation, u = P phi / sqrt(1 + phi^T P phi).

While fewer than M observations (M basis functions) have arrived, P is kept
factored as I/lam - U^T U, where U stacks the n downdate vectors seen so far:
O(nM) time per update and nM floats of state. When the M-th observation has
been folded in, the stack is multiplied out once into the dense M x M matrix,
and every later update downdates that matrix in place a block of rows at a
time: O(M^2) time, M^2 floats, and no M x M temporaries. At n = M the two
forms cost the same per update, and U is as large as the matrix it stands for.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidSettingError, NonFiniteError

__all__ = ["RecursiveLeastSquares"]

# rows of the covariance downdated per step; bounds the temporary to this many rows
_BLOCK_ROWS = 64


class RecursiveLeastSquares:
    """Online ridge fit of linear coefficients.

    The coefficient vector is updated in place, so callers may keep a
    reference to ``coeffs`` (the surrogate model does) and see every update.
    """

    def __init__(self, c0, lam: float):
        if not lam > 0.0:
            raise InvalidSettingError("lam", f"regulariser must be > 0, got {lam!r}")
        self.coeffs = np.asarray(c0, dtype=float)
        if self.coeffs.ndim != 1:
            raise DimensionMismatchError("prior coefficients must be a vector")
        self.lam = float(lam)
        self.n_updates = 0
        # before the fold: rows [0, n_updates) hold U, the rest is spare capacity
        self._downdates = np.empty((0, len(self.coeffs)))
        self._dense_cov = None

    def update(self, phi, y: float) -> None:
        """Fold one observation (features phi, response y) into the fit. Every check
        comes before any state changes, so a rejected observation changes nothing."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != self.coeffs.shape:
            raise DimensionMismatchError(
                f"features of shape {phi.shape}, expected {self.coeffs.shape}"
            )
        y = float(y)
        if not (np.isfinite(y) and np.all(np.isfinite(phi))):
            raise NonFiniteError("non-finite observation fed to the least squares update")

        fold = self._dense_cov is None and self.n_updates == len(self.coeffs)
        dense_cov = self._multiply_out() if fold else self._dense_cov
        if dense_cov is None:
            u_rows = self._downdates[: self.n_updates]
            cov_phi = phi / self.lam - u_rows.T @ (u_rows @ phi)
        else:
            cov_phi = dense_cov @ phi
        denom = 1.0 + phi @ cov_phi
        if not denom >= 1.0:
            # P is positive definite, so denom >= 1 in exact arithmetic
            raise NonFiniteError(
                f"least squares covariance lost positive definiteness at observation "
                f"{self.n_updates + 1}: 1 + phi^T P phi = {denom!r}, "
                f"max |phi| = {np.abs(phi).max()!r}"
            )
        gain = cov_phi / denom
        coeffs = self.coeffs + gain * (y - phi @ self.coeffs)
        u = cov_phi / np.sqrt(denom)
        if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(u))):
            raise NonFiniteError("least squares update would make the fit non-finite")
        if fold:
            self._dense_cov, self._downdates = dense_cov, None
        self.coeffs[:] = coeffs
        if self._dense_cov is None:
            self._append_downdate(u)
        else:
            # cov -= u u^T: u_i * u_j == u_j * u_i exactly, so cov stays bit-symmetric
            for i in range(0, len(u), _BLOCK_ROWS):
                self._dense_cov[i : i + _BLOCK_ROWS] -= np.outer(u[i : i + _BLOCK_ROWS], u)
        self.n_updates += 1

    def _append_downdate(self, u: np.ndarray) -> None:
        capacity = len(self._downdates)
        if self.n_updates == capacity:
            # double, capped at M rows: U is never larger than the dense covariance
            grown = np.empty((min(max(2 * capacity, 1), len(u)), len(u)))
            grown[:capacity] = self._downdates
            self._downdates = grown
        self._downdates[self.n_updates] = u

    def _multiply_out(self) -> np.ndarray:
        """I/lam - U^T U as a new M x M array, exactly symmetric."""
        u_rows = self._downdates[: self.n_updates]
        cov = u_rows.T @ u_rows  # numpy computes a.T @ a as a symmetric product
        np.negative(cov, out=cov)
        cov.flat[:: len(cov) + 1] += 1.0 / self.lam
        return cov
