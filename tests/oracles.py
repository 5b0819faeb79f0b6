"""Independent slow oracles used to check the library's fast paths.

Nothing here calls back into puffer_lasso or numpy.linalg: eigenvalues
come from cyclic Jacobi rotations, linear systems from Gauss-Jordan
elimination, integrals from composite Simpson, the normal CDF from a
Taylor series plus a Laplace continued fraction, and the Lasso from
subgradient descent and exact sign-pattern enumeration.

``pen_value_reference`` and ``pen_derivative_reference`` are the
penalty and its derivative as they were written before the piece table,
one formula per kind and piece; ``threshold_by_enumeration`` is the
SCAD/MC+ candidate enumeration that preceded the closed-form thresholds,
scored with ``pen_value_reference``.

Some exceptions are not independent: they keep an earlier, plainer form
of a fast path as a reference for tests that demand the same floats.
``threshold_dispatch_reference`` is ``univariate_threshold`` as it was
before ``threshold_map``: its level-0, zero and sign dispatch, without
argument checks, on the library's ``_threshold_scad`` and ``_threshold_mcp``.
``coordinate_descent_reference`` is the plain cyclic sweep on numpy
arrays, on the library's ``univariate_threshold`` and ``kkt_residual``; its
gradient refreshes take X'X beta over beta's support, as the sweep does.
``inference_reference`` is the composition of separately factored
estimators that preceded the single-SVD ``inference``; it calls
``np.linalg.svd`` itself and the library's ``p_values``.
``load_dataset_reference`` is the CLI's CSV reader as it was before the
``np.loadtxt`` fast path: ``csv.reader`` and one ``float()`` per cell, with
a ``csv.Error`` reported as a DataError naming the row; its ``y`` is a
contiguous copy of the response column, as the CLI's is.
``puffer_scaled_reference`` is the scaled Puffer transform as it was
before X was factored once: N from one SVD of X, then Puffer on X N with a
second SVD, both by ``np.linalg.svd``.
``one_svd_reference`` is every tall-design quantity as it was computed
before tall designs were factored in row blocks: one ``np.linalg.svd`` of
X, and for the scaled transform one more of the p x p D V'N.
``exact_ols`` is not a fast path's earlier form: it solves the normal
equations in exact rational arithmetic.
``precondition_csv_reference`` is the ``precondition`` output as it was
before one format per row: the CLI's ``_fmt`` on every value.
``kkt_residual_reference`` and ``objective_value_reference`` are the
solver's residual and objective as they were before zero coefficients were
handled by one numpy reduction and skipped: one Python step per coordinate,
on the library's ``pen_derivative`` and ``pen_value``.
``json_array_reference`` is the CLI's JSON of a float array as it was
before the one-join fast path: ``_json`` on the array's list, one dispatch
per value.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from puffer_lasso.cli import Dataset, _fmt, _json
from puffer_lasso.errors import DataError
from puffer_lasso.estimators import p_values
from puffer_lasso.penalties import (
    PenaltySpec,
    _threshold_mcp,
    _threshold_scad,
    pen_derivative,
    pen_value,
    univariate_threshold,
)
from puffer_lasso.solver import COORD_TOL, KKT_TOL, MAX_ITER, kkt_residual


def jacobi_eigenvalues(sym, max_sweeps: int = 200, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    scale = max(float(np.max(np.abs(a))), 1.0)
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off = max(off, abs(a[i, j]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                g = np.eye(n)
                g[p, p] = c
                g[q, q] = c
                g[p, q] = s
                g[q, p] = -s
                a = g.T @ a @ g
    return np.sort(np.diag(a))[::-1]


def singular_values(x) -> np.ndarray:
    """Singular values as square roots of the Gram eigenvalues."""
    x = np.asarray(x, dtype=np.float64)
    gram = x.T @ x if x.shape[0] >= x.shape[1] else x @ x.T
    eig = np.clip(jacobi_eigenvalues(gram), 0.0, None)
    return np.sqrt(eig)


def characteristic_cubic_eigenvalues(sym3) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix by bisection on det(A - t I)."""
    a = np.array(sym3, dtype=np.float64)
    assert a.shape == (3, 3)

    def det3(m):
        return (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )

    def charpoly(t):
        return det3(a - t * np.eye(3))

    bound = float(np.max(np.abs(a))) * 3.0 + 1.0
    # sample densely enough to bracket the three real roots
    grid = np.linspace(-bound, bound, 20001)
    values = [charpoly(t) for t in grid]
    roots = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            roots.append(grid[i])
        elif values[i] * values[i + 1] < 0.0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if charpoly(lo) * charpoly(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return np.sort(np.array(roots))[::-1]


def gauss_jordan_solve(a, b) -> np.ndarray:
    """Solve a x = b by Gauss-Jordan elimination with partial pivoting."""
    a = np.array(a, dtype=np.float64)
    rhs = np.array(b, dtype=np.float64).reshape(-1)
    n = a.shape[0]
    aug = np.hstack([a, rhs.reshape(-1, 1)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise ValueError("singular matrix in oracle solve")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n]


def exact_ols(x, y) -> tuple[np.ndarray, np.ndarray]:
    """beta_ols and diag((X'X)^-1) of a full-column-rank X, each rounded
    once from the exact rational solution: X'X and X'Y are formed, and
    Gauss-Jordan runs, on ``Fraction``s of the float64 entries."""
    xs = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=np.float64).tolist()]
    ys = [Fraction(v) for v in np.asarray(y, dtype=np.float64).tolist()]
    cols = list(zip(*xs))
    p = len(cols)
    aug = [
        [sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(p)]
        + [sum(a * b for a, b in zip(cols[i], ys))]
        + [Fraction(int(i == j)) for j in range(p)]
        for i in range(p)
    ]
    for c in range(p):
        pivot = next(r for r in range(c, p) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(p):
            if r != c and aug[r][c] != 0:
                factor = aug[r][c]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[c])]
    return np.array([float(row[p]) for row in aug]), np.array([float(row[p + 1 + i]) for i, row in enumerate(aug)])


def gauss_jordan_inverse(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    cols = [gauss_jordan_solve(a, np.eye(n)[:, j]) for j in range(n)]
    return np.column_stack(cols)


def simpson(f, lo: float, hi: float, intervals: int = 4000) -> float:
    """Composite Simpson quadrature (intervals is made even)."""
    m = intervals + (intervals % 2)
    grid = np.linspace(lo, hi, m + 1)
    values = np.array([f(t) for t in grid])
    h = (hi - lo) / m
    return float(h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


def central_difference(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def grid_minimizer(f, lo: float, hi: float, step: float = 1e-4) -> float:
    """Argmin of a scalar function over a dense grid."""
    grid = np.arange(lo, hi + step, step)
    values = np.array([f(t) for t in grid])
    return float(grid[int(np.argmin(values))])


def normal_upper_tail_oracle(t: float) -> float:
    """1 - Phi(t) for t >= 0: Taylor series below t = 5, the Laplace
    continued fraction for the Mills ratio above (no cancellation in the
    far tail)."""
    assert t >= 0
    pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    if t <= 5.0:
        # Phi(t) = 1/2 + pdf(t) * sum_k t^(2k+1) / (1*3*5*...*(2k+1))
        term = t
        total = t
        k = 0
        while term > 1e-20 * max(total, 1e-300):
            k += 1
            term *= t * t / (2 * k + 1)
            total += term
        return 0.5 - pdf * total
    # 1 - Phi(t) = pdf(t) / (t + 1/(t + 2/(t + 3/(t + ...))))
    cf = 0.0
    for k in range(400, 0, -1):
        cf = k / (t + cf)
    return pdf / (t + cf)


def two_sided_p_oracle(z: float) -> float:
    return 2.0 * normal_upper_tail_oracle(abs(z))


def lasso_subgradient_descent(x, y, lam: float, iterations: int = 200_000) -> np.ndarray:
    """Subgradient descent on 0.5 ||y - X b||^2 + lam ||b||_1.

    Strong convexity (full-column-rank X) gives O(1/k) convergence with
    the 2/(mu (k+1)) step; the weighted running average over the second
    half of the iterations is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu = float(np.min(jacobi_eigenvalues(x.T @ x)))
    assert mu > 0, "oracle requires strong convexity"
    beta = np.zeros(x.shape[1])
    acc = np.zeros_like(beta)
    weight = 0.0
    half = iterations // 2
    for k in range(1, iterations + 1):
        grad = x.T @ (x @ beta - y) + lam * np.sign(beta)
        beta = beta - (2.0 / (mu * (k + 1))) * grad
        if k > half:
            acc += k * beta
            weight += k
    return acc / weight


def lasso_sign_enumeration(x, y, lam: float) -> np.ndarray:
    """Exact Lasso solution for small p by enumerating sign patterns.

    For each pattern s in {-1,0,+1}^p the stationarity system on the
    active set is solved by elimination and checked for sign and
    dead-zone consistency; the consistent pattern is the global optimum.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = x.shape[1]
    assert p <= 8, "enumeration oracle is exponential in p"
    best = None
    best_obj = math.inf
    for code in range(3**p):
        signs = []
        c = code
        for _ in range(p):
            signs.append(c % 3 - 1)
            c //= 3
        active = [j for j, s in enumerate(signs) if s != 0]
        beta = np.zeros(p)
        if active:
            xa = x[:, active]
            sa = np.array([signs[j] for j in active], dtype=np.float64)
            try:
                ba = gauss_jordan_solve(xa.T @ xa, xa.T @ y - lam * sa)
            except ValueError:
                continue
            if any(np.sign(ba) != sa):
                continue
            beta[active] = ba
        resid_corr = x.T @ (y - x @ beta)
        inactive_ok = all(
            abs(resid_corr[j]) <= lam + 1e-9 for j in range(p) if signs[j] == 0
        )
        if not inactive_ok:
            continue
        r = y - x @ beta
        obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(beta)))
        if obj < best_obj:
            best_obj = obj
            best = beta
    assert best is not None, "no consistent sign pattern found"
    return best


def pen_value_reference(p: PenaltySpec, x: float) -> float:
    """pen(x), one formula per kind and piece of |x|."""
    t = abs(x)
    if p.kind == "lasso":
        return t
    if p.kind == "elastic_net":
        return t + 0.5 * p.param * t * t
    if p.kind == "scad":
        a = p.param
        if t <= 1.0:
            return t
        if t <= a:
            return (2.0 * a * t - t * t - 1.0) / (2.0 * (a - 1.0))
        return 0.5 * (a + 1.0)
    g = p.param
    if t <= g:
        return t - t * t / (2.0 * g)
    return 0.5 * g


def pen_derivative_reference(p: PenaltySpec, x: float) -> float:
    """pen'(x) at x != 0, one formula per kind and piece of |x|."""
    s = 1.0 if x > 0 else -1.0
    t = abs(x)
    if p.kind == "lasso":
        return s
    if p.kind == "elastic_net":
        return s * (1.0 + p.param * t)
    if p.kind == "scad":
        a = p.param
        if t <= 1.0:
            return s
        if t <= a:
            return s * (a - t) / (a - 1.0)
        return 0.0
    g = p.param
    if t <= g:
        return s * (1.0 - t / g)
    return 0.0


def _scalar_objective(p: PenaltySpec, z: float, lam: float, b: float) -> float:
    r = z - b
    return 0.5 * r * r + lam * pen_value_reference(p, b)


def _threshold_nonconvex(p: PenaltySpec, z: float, lam: float) -> float:
    # z >= 0 here. The objective is piecewise quadratic on [0, inf); the
    # global minimizer is either an interior stationary point of a convex
    # piece or a piece boundary, so enumerating those candidates is exact.
    # Stationary-point formulas are clamped to z: the minimizer never
    # exceeds z, but their float evaluation can round one ulp above it.
    if p.kind == "scad":
        a = p.param
        candidates = [0.0, 1.0, a]
        b1 = z - lam
        if 0.0 < b1 <= 1.0:
            candidates.append(min(b1, z))
        curv = 1.0 - lam / (a - 1.0)
        if curv > 0.0:
            b2 = (z - lam * a / (a - 1.0)) / curv
            if 1.0 <= b2 <= a:
                candidates.append(min(b2, z))
        if z >= a:
            candidates.append(z)
    else:  # mcp
        g = p.param
        candidates = [0.0, g]
        if lam < g:
            b1 = g * (z - lam) / (g - lam)
            if 0.0 < b1 <= g:
                candidates.append(min(b1, z))
        if z >= g:
            candidates.append(z)
    # ties resolve toward the smaller-magnitude solution
    return min(candidates, key=lambda b: (_scalar_objective(p, z, lam, b), b))


def threshold_by_enumeration(p: PenaltySpec, z: float, lam: float) -> float:
    """SCAD/MC+ scalar threshold by enumerating every candidate minimizer."""
    assert p.kind in ("scad", "mcp") and lam >= 0
    if lam == 0.0:
        return z
    if z == 0.0:
        return 0.0
    if z < 0.0:
        return -_threshold_nonconvex(p, -z, lam)
    return _threshold_nonconvex(p, z, lam)


def threshold_dispatch_reference(p: PenaltySpec, z: float, lam: float) -> float:
    """univariate_threshold(p, z, lam) for any lam >= 0, inf included."""
    if lam == 0.0:
        return z
    if p.kind in ("lasso", "elastic_net"):
        soft = z - lam if z > lam else z + lam if z < -lam else 0.0
        return soft if p.kind == "lasso" else soft / (1.0 + lam * p.param)
    if z == 0.0:
        return 0.0
    threshold = _threshold_scad if p.kind == "scad" else _threshold_mcp
    if z < 0.0:
        return -threshold(p.param, p.limit, -z, lam)
    return threshold(p.param, p.limit, z, lam)


def coordinate_descent_reference(
    x, y, lam: float, pen: PenaltySpec, init=None, max_iter: int = MAX_ITER, visits=None
):
    """Plain cyclic coordinate descent on numpy arrays, with the update
    order, incremental gradient, drift refresh and stopping rule of
    ``solver.solve``, capped at ``max_iter`` sweeps. Returns (beta,
    sweeps, converged). A ``visits`` list receives (old, z, level, new)
    for every threshold call. Where p > n, X'X is built the way the
    solver's store builds it: row j as X'x_j on its own, and the diagonal
    as the columns' squared norms in one einsum."""
    m = np.asarray(x, dtype=np.float64)
    v = np.asarray(y, dtype=np.float64)
    n, p = m.shape
    if n >= p:
        gram = m.T @ m
        diag = np.diag(gram).copy()
    else:
        gram = np.array([m.T @ m[:, j] for j in range(p)])
        diag = np.einsum("ij,ij->j", m, m)
    xty = m.T @ v
    tol = max(KKT_TOL, p * np.finfo(float).eps * float(np.max(np.abs(xty))))
    beta = np.zeros(p) if init is None else np.array(init, dtype=np.float64)

    def refreshed():
        # X'Y - X'X beta from the rows of X'X at beta's nonzeros, as in solve
        support = np.flatnonzero(beta)
        return xty - beta[support] @ gram[support]

    grad = refreshed()
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_change = 0.0
        for j in range(p):
            cj = diag[j]
            old = beta[j]
            if cj <= 0.0:
                new = 0.0
            else:
                rho = float(grad[j]) + cj * old
                new = univariate_threshold(pen, rho / cj, lam / cj)
                if visits is not None:
                    visits.append((old, rho / cj, lam / cj, new))
            step = new - old
            if step != 0.0:
                grad -= step * gram[j]
                beta[j] = new
                max_change = max(max_change, abs(step))
        if max_change < COORD_TOL:
            grad = refreshed()
            if kkt_residual(grad, beta, lam, pen) < tol:
                converged = True
                break
        elif sweeps % 64 == 0:
            grad = refreshed()
    return beta, sweeps, converged


def inference_reference(x, y, sigma: float | None = None):
    """OLS coefficients, Z statistics, p-values and sigma as the separately
    factored estimators computed them: sigma_hat (one SVD for its OLS fit),
    then z_stats (one SVD for OLS, one for diag((X'X)^-1)), then OLS again.
    Full-column-rank X with n > p + 1 only. Returns (beta, z, p, sigma)."""
    m = np.asarray(x, dtype=np.float64)
    v = np.asarray(y, dtype=np.float64)
    n, p = m.shape

    def ols():
        u, d, vt = np.linalg.svd(m, full_matrices=False)
        return vt.T @ ((u.T @ v) / d)

    def gram_inverse_diagonal():
        _, d, vt = np.linalg.svd(m, full_matrices=False)
        return np.square(vt.T) @ (1.0 / np.square(d))

    if sigma is None:
        sigma = float(np.linalg.norm(v - m @ ols())) / math.sqrt(n - p)
    sigma = float(sigma)
    beta = ols()
    z = math.sqrt(n) * beta / (sigma * np.sqrt(gram_inverse_diagonal()))
    return ols(), z, p_values(z), sigma


def load_dataset_reference(path: str, response_column: str | int) -> Dataset:
    """Read a headered CSV into a design matrix and response vector.

    All cells must be numeric ('.' decimal separator, no thousands
    separators); parse problems report the 1-based row and the column
    name. No intercept column is added implicitly.
    """
    file = Path(path)
    if not file.is_file():
        raise DataError(f"input file not found: {path}")
    with file.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        except csv.Error as exc:
            raise DataError(f"{path}: row 1: {exc}") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataError(f"{path}: duplicate header names {dupes}")
        rows: list[list[float]] = []
        lineno = 1
        while True:
            try:
                raw = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise DataError(f"{path}: row {lineno + 1}: {exc}") from None
            lineno += 1
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(raw)} cells, expected {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, raw):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {lineno}, column {name!r}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {lineno}, column {name!r}: non-finite value {cell.strip()!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {len(rows)}")

    if isinstance(response_column, str):
        try:
            response_idx = int(response_column)
        except ValueError:
            if response_column not in header:
                raise DataError(
                    f"{path}: response column {response_column!r} not in header {header}"
                ) from None
            response_idx = header.index(response_column)
    else:
        response_idx = int(response_column)
    if not 0 <= response_idx < len(header):
        raise DataError(f"{path}: response column index {response_idx} out of range")

    data = np.asarray(rows, dtype=np.float64)
    mask = np.ones(len(header), dtype=bool)
    mask[response_idx] = False
    if not mask.any():
        raise DataError(f"{path}: no feature columns besides the response")
    return Dataset(
        x=data[:, mask],
        y=data[:, response_idx].copy(),
        feature_names=tuple(h for i, h in enumerate(header) if i != response_idx),
        response_name=header[response_idx],
    )


def puffer_scaled_reference(x, y):
    """(x_tilde, y_tilde, n_diag) of the two-SVD scaled transform:
    N_jj = sqrt of [(X'X)^-1]_jj from the SVD of X, then the SVD
    X N = U S W' gives x_tilde = U W' and y_tilde = U S^-1 U'Y."""
    m, v = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    _, d, vt = np.linalg.svd(m, full_matrices=False)
    n_diag = np.sqrt(np.square(vt.T) @ (1.0 / np.square(d)))
    u, s, wt = np.linalg.svd(m * n_diag, full_matrices=False)
    return u @ wt, u @ ((u.T @ v) / s), n_diag


def one_svd_reference(x, y, sigma: float):
    """Puffer's (x_tilde, y_tilde), the scaled transform's (x_tilde,
    y_tilde, n_diag), beta_ols and the Z statistics at ``sigma``, from one
    ``np.linalg.svd`` of X (full column rank, n > p), by name."""
    m, v = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    u, d, vt = np.linalg.svd(m, full_matrices=False)
    nu = np.square(vt.T) @ (1.0 / np.square(d))
    n_diag = np.sqrt(nu)
    q, s, wt = np.linalg.svd(d[:, None] * (vt * n_diag))
    uty = u.T @ v
    beta = vt.T @ (uty / d)
    return {
        "puffer": (u @ vt, u @ (uty / d)),
        "puffer_scaled": (u @ (q @ wt), u @ (q @ ((q.T @ uty) / s)), n_diag),
        "beta_ols": beta,
        "z_stats": math.sqrt(m.shape[0]) * beta / (sigma * np.sqrt(nu)),
    }


def precondition_csv_reference(data: Dataset, x, y) -> str:
    """The ``precondition`` CSV of (x, y) under ``data``'s column names,
    one ``_fmt`` call per value; raises the NumericalError of the first
    non-finite value, the response before the features of each row."""
    lines = [",".join([data.response_name, *data.feature_names])]
    for i in range(x.shape[0]):
        lines.append(",".join([_fmt(y[i]), *(_fmt(v) for v in x[i])]))
    return "\n".join(lines) + "\n"


def kkt_residual_reference(grad, beta, lam: float, pen: PenaltySpec) -> float:
    """Max first-order violation, one coordinate at a time; a NaN gap wins."""
    worst = 0.0
    for j in range(beta.size):
        b = float(beta[j])
        g = float(grad[j])
        if b != 0.0:
            gap = abs(g - lam * pen_derivative(pen, b))
        else:
            gap = abs(g) - lam
        if gap > worst or gap != gap:
            worst = gap
    return max(worst, 0.0)


def objective_value_reference(x, y, lam: float, pen: PenaltySpec, beta) -> float:
    """0.5 * ||Y - X b||^2 + lam * fsum of pen(b_j) over every coordinate."""
    r = y - x @ beta
    return 0.5 * float(r @ r) + lam * math.fsum(pen_value(pen, float(b)) for b in beta)


def json_array_reference(values) -> str:
    """The JSON of a float array through the general list path."""
    return _json(values.tolist())
