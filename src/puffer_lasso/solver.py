"""Penalized least-squares solver via cyclic coordinate descent.

Solves

    minimize over b:  0.5 * ||Y - X b||^2 + lam * sum_j pen(b_j)

with exact univariate threshold updates, so the orthonormal-design case
converges in a sweep and every fixed point satisfies the first-order
condition: the gradient g = X'(Y - X b) equals lam * pen'(b_j) on active
coordinates and stays within [-lam, lam] elsewhere.

For the convex penalties, sweeps that keep the support and signs fixed
are followed by an exact solve on that cell (``_polish``), the way LARS
solves each segment of the Lasso path exactly (Efron et al. 2004).

Note on conventions: the 0.5 factor above is fixed. The same problem
written without it, ||Y - X b||^2 + lam' * ||b||_1, corresponds to
lam' = 2 * lam here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .penalties import PenaltySpec, pen_derivative, pen_value, threshold_map, zero_within_level


#: sweep cap; a fit that reaches it is returned with converged=False
MAX_ITER = 10000
#: a sweep whose largest coordinate step is below this triggers the KKT check
COORD_TOL = 1e-10
#: converged means the refreshed KKT residual is below this
KKT_TOL = 1e-7
#: two minima are distinct when their sup-distance exceeds this
DISTINCT_TOL = 1e-5


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
    #: exact cell solves that the sweep accepted (convex penalties only)
    polish_accepts: int = 0


def objective_value(x, y, lam: float, pen: PenaltySpec, beta) -> float:
    """0.5 * ||Y - X b||^2 + lam * sum_j pen(b_j); the penalty terms are
    summed with math.fsum, correctly rounded on every Python version."""
    r = y - x @ beta
    return 0.5 * float(r @ r) + lam * math.fsum(pen_value(pen, float(b)) for b in beta)


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
    m, v = linalg.as_design(x, y)
    top = float(np.max(np.abs(linalg.finite("X'Y", lambda: m.T @ v))))
    # einsum sets no floating-point flags, so an overflow is a silent inf
    linalg.require_resolved(m, np.einsum("ij,ij->j", m, m))
    return top


def solve(
    x,
    y,
    lam: float,
    pen: PenaltySpec,
    init=None,
    *,
    normal: tuple[np.ndarray, np.ndarray] | None = None,
) -> FitResult:
    """Run cyclic coordinate descent from ``init`` (zeros by default).

    Always returns a FitResult; if MAX_ITER is exhausted the result is
    flagged converged=False rather than raising. The reported KKT
    residual is recomputed from the raw inputs at the end. ``normal`` is
    (X'X, X'Y) already computed from these x and y; ``solve_path`` and
    ``multistart_local_minima`` pass it so that a design's Gram is built
    once per call rather than once per fit.

    For the Lasso and the elastic net, once ``need`` sweeps in a row (2 at
    first) have moved no coordinate to, from or across zero, the fit is
    polished: ``_polish`` solves the quadratic of the current cell
    exactly. An accepted polish replaces beta and refreshes the gradient;
    a rejected one doubles ``need``. Either way sweeping goes on, so the
    COORD_TOL and KKT tests still decide convergence, and ``iterations``
    counts sweeps only. SCAD and MC+ are swept plainly.
    """
    m, v = linalg.as_design(x, y)
    p = m.shape[1]
    linalg.require_scalar("lambda", lam)
    gram, xty = linalg.normal_equations(m, v) if normal is None else normal
    if init is None:
        beta = np.zeros(p)
    else:
        beta = linalg.as_vector(init, p).copy()

    # The sweep runs on Python floats and row views; the numpy beta is
    # rebuilt only where a matrix product needs it. The penalty's map and
    # each coordinate's level lam / c_j are resolved once per fit.
    coef = beta.tolist()
    diag = np.diag(gram).tolist()
    rows = list(gram)  # symmetric: row j == column j
    threshold = threshold_map(pen)
    levels = [lam / cj if cj > 0.0 else 0.0 for cj in diag]
    # A coordinate at zero with -lam <= grad_j <= lam stays at zero when
    # the threshold map is zero on [-lam/c_j, lam/c_j], since correctly
    # rounded division is monotone; it is not for SCAD and MC+ in their
    # nonconvex regime. A zero column's update is always 0.
    settled = [cj <= 0.0 or zero_within_level(pen, level) for cj, level in zip(diag, levels)]
    lo = -lam
    # grad is maintained as X'(Y - X beta), in place only, so that g, a
    # memoryview of its buffer, reads it as Python floats
    grad = xty - gram @ beta
    g = memoryview(grad)
    converged = False
    sweeps = 0
    # the cell: sweeps since a coordinate last moved to, from or across
    # zero, and how many of them the next polish waits for
    stable, need, accepts = 0, 2 if pen.convex else math.inf, 0
    for sweeps in range(1, MAX_ITER + 1):
        max_change = 0.0
        moved = False
        for j in range(p):
            old = coef[j]
            if old == 0.0 and settled[j] and lo <= g[j] <= lam:
                continue
            cj = diag[j]
            if cj <= 0.0:
                new = 0.0
            else:
                new = threshold((g[j] + cj * old) / cj, levels[j])
            step = new - old
            if step != 0.0:
                grad -= step * rows[j]
                coef[j] = new
                if old * new <= 0.0:
                    moved = True
                if step > max_change:
                    max_change = step
                elif -step > max_change:
                    max_change = -step
        if max_change < COORD_TOL:
            beta = np.array(coef)
            np.subtract(xty, gram @ beta, out=grad)  # exact refresh before the KKT check
            if kkt_residual(grad, beta, lam, pen) < KKT_TOL:
                converged = True
                break
        elif sweeps % 64 == 0:
            beta = np.array(coef)
            np.subtract(xty, gram @ beta, out=grad)  # cap incremental drift
        stable = 0 if moved else stable + 1
        if stable >= need:
            stable = 0
            polished = _polish(m, v, gram, xty, lam, pen, np.array(coef))
            if polished is None:
                need *= 2
            else:
                accepts += 1
                coef = polished.tolist()
                np.subtract(xty, gram @ polished, out=grad)

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
        polish_accepts=accepts,
    )


def _polish(m, v, gram, xty, lam: float, pen: PenaltySpec, beta):
    """The minimiser of a convex penalty's objective on beta's cell, or
    None where it does not improve on beta.

    On the cell with support A and signs s the objective is the quadratic
    whose stationary point solves (G_AA + lam * alpha * I) b_A = (X'Y)_A -
    lam * s_A, with alpha = 0 for the Lasso. The point is accepted only if
    that matrix has a Cholesky factor (and the solve succeeds), every b_j
    keeps its sign s_j, and the objective does not rise.
    """
    active = np.flatnonzero(beta)
    if active.size == 0:
        return None
    signs = np.sign(beta[active])
    cell = gram[np.ix_(active, active)]
    if pen.kind == "elastic_net":
        cell[np.diag_indices_from(cell)] += lam * pen.param
    try:
        np.linalg.cholesky(cell)
        # a rounding-positive factor of a singular cell can leave LU a zero pivot
        solved = np.linalg.solve(cell, xty[active] - lam * signs)
    except np.linalg.LinAlgError:
        return None
    if not np.array_equal(np.sign(solved), signs):
        return None
    polished = np.zeros_like(beta)
    polished[active] = solved
    if objective_value(m, v, lam, pen, polished) > objective_value(m, v, lam, pen, beta):
        return None
    return polished


def solve_path(x, y, lambdas, pen: PenaltySpec) -> list[FitResult]:
    """Warm-started fits along a decreasing grid of positive lambdas."""
    lams = [float(t) for t in lambdas]
    if not lams:
        raise ValueError("lambda grid is empty")
    for t in lams:
        linalg.require_scalar("lambda grid entries", t, "positive")
    linalg.require_descending("lambda grid", lams)
    m, v = linalg.as_design(x, y)
    normal = linalg.normal_equations(m, v)
    results: list[FitResult] = []
    warm = None
    for lam in lams:
        fit = solve(m, v, lam, pen, init=warm, normal=normal)
        results.append(fit)
        warm = fit.beta
    return results


def multistart_local_minima(x, y, lam: float, pen: PenaltySpec, starts: int = 8) -> list[FitResult]:
    """Deduplicated stationary points from random restarts.

    Convex penalties (and lam = 0, where the penalty vanishes) have a
    single minimum, so one cold-started solve is returned. Otherwise
    ``starts`` (>= 1) starts are drawn uniformly from the box [-s, s]^p
    with s = ||X'Y||_inf from a generator seeded with 0, solved, and
    deduplicated at sup-distance DISTINCT_TOL. Output order is
    deterministic: by objective, then coefficients.
    """
    linalg.require_scalar("lambda", lam)
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if pen.convex or lam == 0.0:
        return [solve(x, y, lam, pen)]
    m, v = linalg.as_design(x, y)
    normal = linalg.normal_equations(m, v)
    scale = float(np.max(np.abs(normal[1])))  # lambda_max(x, y)
    rng = np.random.default_rng(0)
    fits: list[FitResult] = []
    for _ in range(starts):
        init = rng.uniform(-scale, scale, size=m.shape[1])
        fit = solve(m, v, lam, pen, init=init, normal=normal)
        if all(np.max(np.abs(fit.beta - f.beta)) > DISTINCT_TOL for f in fits):
            fits.append(fit)
    fits.sort(key=lambda f: (f.objective, tuple(f.beta)))
    return fits
