"""Penalized least-squares solver via cyclic coordinate descent.

Solves

    minimize over b:  0.5 * ||Y - X b||^2 + lam * sum_j pen(b_j)

with exact univariate threshold updates, so the orthonormal-design case
converges in a sweep and every fixed point satisfies the first-order
condition: the gradient g = X'(Y - X b) equals lam * pen'(b_j) on active
coordinates and stays within [-lam, lam] elsewhere.

Note on conventions: the 0.5 factor above is fixed. The same problem
written without it, ||Y - X b||^2 + lam' * ||b||_1, corresponds to
lam' = 2 * lam here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .penalties import PenaltySpec, pen_derivative, pen_value, univariate_threshold, zero_within_level


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 10000
    coord_tol: float = 1e-10
    kkt_tol: float = 1e-7
    multistart_count: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (self.coord_tol > 0 and self.kkt_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class FitResult:
    beta: np.ndarray
    lam: float
    penalty: PenaltySpec
    iterations: int
    converged: bool
    kkt_residual: float
    objective: float
    active_set: tuple[int, ...] = field(default=())


def objective_value(x, y, lam: float, pen: PenaltySpec, beta) -> float:
    """0.5 * ||Y - X b||^2 + lam * sum_j pen(b_j)."""
    r = y - x @ beta
    return 0.5 * float(r @ r) + lam * sum(pen_value(pen, float(b)) for b in beta)


def kkt_residual(grad, beta, lam: float, pen: PenaltySpec) -> float:
    """Max first-order violation given the gradient g = X'(Y - X b)."""
    worst = 0.0
    for j in range(beta.size):
        b = float(beta[j])
        g = float(grad[j])
        if b != 0.0:
            gap = abs(g - lam * pen_derivative(pen, b))
        else:
            gap = abs(g) - lam
        if gap > worst or gap != gap:  # max() would drop a NaN
            worst = gap
    return max(worst, 0.0)


def lambda_max(x, y) -> float:
    """||X'Y||_inf: the smallest lam at which the Lasso fit is all zero."""
    m = linalg.as_matrix(x)
    v = linalg.as_vector(y, m.shape[0])
    return float(np.max(np.abs(m.T @ v)))


def _check_lambda(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")


def _normal_equations(x, y) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Validated (X, Y) and their (X'X, X'Y), for fitting one design many times."""
    m = linalg.as_matrix(x)
    v = linalg.as_vector(y, m.shape[0])
    return m, v, (m.T @ m, m.T @ v)


def solve(
    x,
    y,
    lam: float,
    pen: PenaltySpec,
    init=None,
    cfg: SolverConfig = DEFAULT_CONFIG,
    *,
    normal: tuple[np.ndarray, np.ndarray] | None = None,
) -> FitResult:
    """Run cyclic coordinate descent from ``init`` (zeros by default).

    Always returns a FitResult; if max_iter is exhausted the result is
    flagged converged=False rather than raising. The reported KKT
    residual is recomputed from the raw inputs at the end. ``normal`` is
    (X'X, X'Y) already computed from these x and y; ``solve_path`` and
    ``multistart_local_minima`` pass it so that a design's Gram is built
    once per call rather than once per fit.
    """
    m = linalg.as_matrix(x)
    n, p = m.shape
    v = linalg.as_vector(y, n)
    _check_lambda(lam)

    gram, xty = (m.T @ m, m.T @ v) if normal is None else normal
    if init is None:
        beta = np.zeros(p)
    else:
        beta = linalg.as_vector(init, p).copy()

    # The sweep runs on Python floats and row views; the numpy beta is
    # rebuilt only where a matrix product needs it.
    coef = beta.tolist()
    diag = np.diag(gram).tolist()
    rows = list(gram)  # symmetric: row j == column j
    # A coordinate at zero with -lam <= grad_j <= lam stays at zero when
    # the threshold map is zero on [-lam/c_j, lam/c_j], since correctly
    # rounded division is monotone; it is not for SCAD and MC+ in their
    # nonconvex regime. A zero column's update is always 0.
    settled = [cj <= 0.0 or zero_within_level(pen, lam / cj) for cj in diag]
    lo = -lam
    grad = xty - gram @ beta  # maintained as X'(Y - X beta)
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_iter + 1):
        max_change = 0.0
        for j in range(p):
            old = coef[j]
            if old == 0.0 and settled[j] and lo <= grad[j] <= lam:
                continue
            cj = diag[j]
            if cj <= 0.0:
                new = 0.0
            else:
                new = univariate_threshold(pen, (float(grad[j]) + cj * old) / cj, lam / cj)
            step = new - old
            if step != 0.0:
                grad -= step * rows[j]
                coef[j] = new
                if step > max_change:
                    max_change = step
                elif -step > max_change:
                    max_change = -step
        if max_change < cfg.coord_tol:
            beta = np.array(coef)
            grad = xty - gram @ beta  # exact refresh before the KKT check
            if kkt_residual(grad, beta, lam, pen) < cfg.kkt_tol:
                converged = True
                break
        elif sweeps % 64 == 0:
            beta = np.array(coef)
            grad = xty - gram @ beta  # cap incremental drift

    beta = np.array(coef)
    final_grad = m.T @ (v - m @ beta)
    return FitResult(
        beta=beta,
        lam=lam,
        penalty=pen,
        iterations=sweeps,
        converged=converged,
        kkt_residual=kkt_residual(final_grad, beta, lam, pen),
        objective=objective_value(m, v, lam, pen, beta),
        active_set=tuple(int(j) for j in np.nonzero(beta)[0]),
    )


def solve_path(
    x,
    y,
    lambdas,
    pen: PenaltySpec,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> list[FitResult]:
    """Warm-started fits along a strictly descending positive lambda grid."""
    lams = [float(t) for t in lambdas]
    if not lams:
        raise ValueError("lambda grid is empty")
    for t in lams:
        if not math.isfinite(t):
            raise ValueError(f"lambda grid entries must be finite, got {t}")
    if any(t <= 0 for t in lams):
        raise ValueError("lambda grid entries must be positive")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be strictly descending")
    m, v, normal = _normal_equations(x, y)
    results: list[FitResult] = []
    warm = None
    for lam in lams:
        fit = solve(m, v, lam, pen, init=warm, cfg=cfg, normal=normal)
        results.append(fit)
        warm = fit.beta
    return results


def _distinct(betas: list[np.ndarray], candidate: np.ndarray, tol: float = 1e-5) -> bool:
    return all(np.max(np.abs(candidate - b)) > tol for b in betas)


def multistart_local_minima(
    x,
    y,
    lam: float,
    pen: PenaltySpec,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> list[FitResult]:
    """Deduplicated stationary points from random restarts.

    Convex penalties (and lam = 0, where the penalty vanishes) have a
    single minimum, so one cold-started solve is returned. Otherwise
    cfg.multistart_count starts are drawn uniformly from the box
    [-s, s]^p with s = ||X'Y||_inf, solved, and deduplicated at
    sup-distance 1e-5. Output order is deterministic: by objective,
    then coefficients.
    """
    _check_lambda(lam)
    if pen.convex or lam == 0.0:
        return [solve(x, y, lam, pen, cfg=cfg)]
    m, v, normal = _normal_equations(x, y)
    p = m.shape[1]
    scale = float(np.max(np.abs(normal[1])))  # lambda_max(x, y)
    rng = np.random.default_rng(cfg.rng_seed)
    fits: list[FitResult] = []
    betas: list[np.ndarray] = []
    for _ in range(cfg.multistart_count):
        init = rng.uniform(-scale, scale, size=p)
        fit = solve(m, v, lam, pen, init=init, cfg=cfg, normal=normal)
        if _distinct(betas, fit.beta):
            betas.append(fit.beta)
            fits.append(fit)
    fits.sort(key=lambda f: (f.objective, tuple(f.beta)))
    return fits
