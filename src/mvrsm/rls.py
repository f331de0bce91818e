"""Recursive least squares with ridge shrinkage toward prior coefficients.

With prior c0 and regulariser lam, after feeding rows (phi_t, y_t) the
coefficients equal the batch ridge solution

    c = c0 + (Phi^T Phi + lam I)^{-1} Phi^T (y - Phi c0)

up to floating point, with unit forgetting (all rows weighted equally).
The covariance (Phi^T Phi + lam I)^{-1} takes a symmetric rank-one
downdate per observation, applied in place a block of rows at a time:
O(M^2) time per update in the number of basis functions M, M^2 floats of
state, and no M x M temporaries.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NonPositiveLambdaError

__all__ = ["RecursiveLeastSquares"]

# rows of the covariance downdated per step; bounds the temporary to this many rows
_BLOCK_ROWS = 64


class RecursiveLeastSquares:
    """Online ridge fit of linear coefficients.

    The coefficient vector is updated in place, so callers may keep a
    reference to ``coeffs`` (the surrogate model does) and see every update.
    """

    def __init__(self, c0, lam: float = 1e-8):
        if not lam > 0.0:
            raise NonPositiveLambdaError(f"regulariser must be > 0, got {lam!r}")
        self.coeffs = np.asarray(c0, dtype=float)
        if self.coeffs.ndim != 1:
            raise DimensionMismatchError("prior coefficients must be a vector")
        self.lam = float(lam)
        self.cov = np.eye(len(self.coeffs)) / self.lam
        self.n_updates = 0

    def update(self, phi, y: float) -> None:
        """Fold one observation (features phi, response y) into the fit."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != self.coeffs.shape:
            raise DimensionMismatchError(
                f"features of shape {phi.shape}, expected {self.coeffs.shape}"
            )
        y = float(y)
        if not (np.isfinite(y) and np.all(np.isfinite(phi))):
            raise NonFiniteError("non-finite observation fed to the least squares update")

        cov_phi = self.cov @ phi
        denom = 1.0 + phi @ cov_phi
        gain = cov_phi / denom
        self.coeffs += gain * (y - phi @ self.coeffs)
        # cov -= u u^T: u_i * u_j == u_j * u_i exactly, so cov stays bit-symmetric
        u = cov_phi / np.sqrt(denom)
        for i in range(0, len(u), _BLOCK_ROWS):
            self.cov[i : i + _BLOCK_ROWS] -= np.outer(u[i : i + _BLOCK_ROWS], u)
        self.n_updates += 1
        if not np.all(np.isfinite(self.coeffs)):
            raise NonFiniteError("least squares state became non-finite")
