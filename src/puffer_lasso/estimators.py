"""Classical estimators and marginal inference: OLS, ridge, Z statistics.

The Z statistic for coordinate j is sqrt(n) * beta_ols_j divided by
sigma * sqrt(nu_j) with nu the diagonal of (X'X)^-1, and the two-sided
marginal p-value is 2 * (1 - Phi(|Z_j|)). The normal CDF is evaluated
through erfc, which keeps the absolute error far below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DataError, DegreesOfFreedomError


@dataclass(frozen=True)
class InferenceResult:
    """OLS coefficients with their Z statistics and marginal p-values."""

    beta_ols: np.ndarray
    z_stats: np.ndarray
    p_values: np.ndarray
    sigma: float
    sigma_source: str  # "user_supplied" or "residual_estimate"


def _ols_fit(x, y):
    """Validate (X, Y), factor X once and solve for beta_ols. Every
    estimator here derives from the returned (X, Y, SVD of X, beta_ols)."""
    m, v = linalg.as_design(x, y, "ols", "n > p")
    f = linalg.svd(m)
    linalg.require_full_rank(f)
    return m, v, f, f.v @ ((f.u.T @ v) / f.d)


def ols(x, y) -> np.ndarray:
    """Least-squares coefficients (X'X)^-1 X'Y for full-rank X with n > p."""
    return _ols_fit(x, y)[3]


def ridge(x, y, tau: float) -> np.ndarray:
    """Ridge coefficients (X'X + tau I)^-1 X'Y; tau=0 is the Moore-Penrose fit.

    For tau = 0 the minimum-l2-norm least-squares solution is returned,
    which interpolates Y whenever X has full row rank. Rank deficiency is
    covered by the pseudoinverse, so no error is raised.
    """
    m, v = linalg.as_design(x, y)
    linalg.require_scalar("tau", tau)
    if tau == 0.0:
        beta, *_ = np.linalg.lstsq(m, v, rcond=None)
        return beta
    gram, xty = linalg.normal_equations(m, v)
    return np.linalg.solve(gram + tau * np.eye(m.shape[1]), xty)


def z_stats(x, y, sigma: float) -> np.ndarray:
    """Classical test statistics sqrt(n) * beta_j / sqrt(sigma^2 * nu_j)."""
    sigma = linalg.require_scalar("sigma", float(sigma), "positive")
    return _z(_ols_fit(x, y), sigma)


def _z(fit, sigma: float) -> np.ndarray:
    m, _, f, beta = fit
    nu = linalg._gram_inverse_diagonal(f)
    return math.sqrt(m.shape[0]) * beta / (sigma * np.sqrt(nu))


def two_sided_p(z: float) -> float:
    """2 * (1 - Phi(|z|)), simplified to erfc(|z| / sqrt(2))."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def p_values(z) -> np.ndarray:
    """Two-sided marginal p-values for a vector of Z statistics."""
    zv = linalg.as_vector(z)
    return np.array([two_sided_p(float(t)) for t in zv])


def sigma_hat(x, y) -> float:
    """Residual noise-scale estimate sqrt(RSS / (n - p)) from the OLS fit.

    Returns exactly 0.0 when Y lies in the column span (a degenerate fit
    the caller should treat as such); residual norms at the rounding
    level, below max(n, p) * eps * ||Y||, count as in-span.
    """
    return _sigma_hat_fit(x, y)[0]


def _sigma_hat_fit(x, y):
    """sigma_hat together with the (X, Y, SVD, beta_ols) it came from."""
    m = linalg.as_matrix(x)
    n, p = m.shape
    if n <= p + 1:
        raise DegreesOfFreedomError(
            f"sigma_hat requires n > p + 1, got n={n}, p={p}"
        )
    fit = m, v, _, beta = _ols_fit(m, y)
    # a finite norm, sqrt(x'x), is below 1.4e154, so norm + scale is finite
    # exactly where both are
    norm, scale = linalg.finite(
        "the residual norm", lambda: np.array([np.linalg.norm(v - m @ beta), np.linalg.norm(v)])
    ).tolist()
    if norm <= max(n, p) * linalg.EPS * scale:
        return 0.0, fit
    return norm / math.sqrt(n - p), fit


def inference(x, y, sigma: float | None = None) -> InferenceResult:
    """Assemble OLS coefficients, Z statistics and p-values from one SVD.

    sigma=None estimates the noise scale from residuals; the choice is
    recorded in sigma_source. A zero estimate (Y in the column span of X)
    raises DataError: without a noise scale there is no Z statistic.
    """
    if sigma is None:
        sigma_used, fit = _sigma_hat_fit(x, y)
        if sigma_used == 0.0:
            raise DataError(
                "degenerate fit: the response lies exactly in the column span, "
                "so the residual noise-scale estimate is zero; supply --sigma"
            )
        source = "residual_estimate"
    else:
        sigma_used = linalg.require_scalar("sigma", float(sigma), "positive")
        fit = _ols_fit(x, y)
        source = "user_supplied"
    z = _z(fit, sigma_used)
    return InferenceResult(
        beta_ols=fit[3],
        z_stats=z,
        p_values=p_values(z),
        sigma=sigma_used,
        sigma_source=source,
    )
