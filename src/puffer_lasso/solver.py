"""Penalized least-squares solver via cyclic coordinate descent.

Solves

    minimize over b:  0.5 * ||Y - X b||^2 + lam * sum_j pen(b_j)

with exact univariate threshold updates, so the orthonormal-design case
converges in a sweep and every fixed point satisfies the first-order
condition: the gradient g = X'(Y - X b) equals lam * pen'(b_j) on active
coordinates and stays within [-lam, lam] elsewhere.

Sweeps that keep the support and signs fixed are followed by an exact
solve on the cell (``_polish``), the way LARS solves each segment of the
Lasso path exactly (Efron et al. 2004). A cell fixes the support, the
signs and the piece of each |b_j| on which pen' is affine, so SCAD and
MC+ cells are quadratics too (Breheny & Huang 2011; Mazumder, Friedman &
Hastie 2011). Where the cell's solution lies outside it, the polish
walks to the cell's boundary: a coordinate reaching zero drops out, a
backward-elimination step, and one reaching a breakpoint moves to the
next piece.

Where p > n, X'X is built a column at a time on first use (``_Gram``),
as in glmnet's covariance updates (Friedman, Hastie & Tibshirani 2010),
and kept only while its coordinate is nonzero or its slot is not needed.

Note on conventions: the 0.5 factor above is fixed. The same problem
written without it, ||Y - X b||^2 + lam' * ||b||_1, corresponds to
lam' = 2 * lam here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .penalties import PenaltySpec, pen_derivative, pen_value, threshold_map


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
    #: exact cell solves that the sweep accepted
    polish_accepts: int = 0


def objective_value(x, y, lam: float, pen: PenaltySpec, beta) -> float:
    """0.5 * ||Y - X b||^2 + lam * sum_j pen(b_j); the penalty terms are
    summed with math.fsum, correctly rounded on every Python version."""
    r = y - x @ beta
    # pen(0) = 0 for every penalty, and fsum is exact, so zeros are skipped
    return 0.5 * float(r @ r) + lam * math.fsum(pen_value(pen, b) for b in beta[beta != 0.0].tolist())


def kkt_residual(grad, beta, lam: float, pen: PenaltySpec) -> float:
    """Max first-order violation given the gradient g = X'(Y - X b)."""
    active = beta != 0.0
    # max keeps a NaN; the comparisons below let it win too
    worst = float((np.abs(grad[~active]) - lam).max(initial=0.0))
    for g, b in zip(grad[active].tolist(), beta[active].tolist()):
        gap = abs(g - lam * pen_derivative(pen, b))
        if gap > worst or gap != gap:  # max() would drop a NaN
            worst = gap
    return worst


def lambda_max(x, y) -> float:
    """||X'Y||_inf: the smallest lam at which the Lasso fit is all zero."""
    m, v = linalg.as_design(x, y)
    top = float(np.max(np.abs(linalg.finite("X'Y", lambda: m.T @ v))))
    # einsum sets no floating-point flags, so an overflow is a silent inf
    linalg.require_resolved(m, np.einsum("ij,ij->j", m, m))
    return top


def solve(x, y, lam: float, pen: PenaltySpec, init=None) -> FitResult:
    """Run cyclic coordinate descent from ``init`` (zeros by default).

    Always returns a FitResult; if MAX_ITER is exhausted the result is
    flagged converged=False rather than raising. Converged means a KKT
    residual below max(KKT_TOL, p * eps * ||X'Y||_inf), the second term
    rounding at the data's own scale; the reported residual is recomputed
    from the raw inputs at the end.

    Once 2 sweeps in a row have moved no coordinate to, from or across
    zero, the fit is polished once: ``_polish`` solves the quadratic of
    the current cell exactly, walking across cells until the solution
    keeps its own. An accepted polish replaces beta and refreshes the
    gradient. Accepted or not, the next polish waits for a sweep that
    moves a coordinate to, from or across zero, and sweeping goes on, so
    the COORD_TOL and KKT tests still decide convergence, and
    ``iterations`` counts sweeps only. Every X'X beta the sweep refreshes
    its gradient with is taken over beta's support only, and a coordinate
    that the sweep or the polish moves to zero releases its X'X row.
    """
    m, v = linalg.as_design(x, y)
    linalg.require_scalar("lambda", lam)
    return _descent(_Gram(m, v), lam, pen, None if init is None else linalg.as_vector(init, m.shape[1]))


def _descent(gram: _Gram, lam: float, pen: PenaltySpec, init) -> FitResult:
    """``solve``'s descent on the validated design that ``gram`` holds,
    from ``init`` (zeros for None), which it does not write to."""
    m, v, xty = gram.m, gram.v, gram.xty
    p = m.shape[1]
    beta = np.zeros(p) if init is None else init

    # The sweep runs on Python floats and row views; the numpy beta is
    # rebuilt only where a matrix product needs it. The penalty's map and
    # each coordinate's level lam / c_j are resolved once per fit.
    coef = gram.fit = beta.tolist()
    diag = gram.diag.tolist()
    threshold = threshold_map(pen)
    levels = [lam / cj if cj > 0.0 else 0.0 for cj in diag]
    # A coordinate at zero with -lam <= grad_j <= lam stays at zero when
    # the threshold map is zero on [-lam/c_j, lam/c_j], since correctly
    # rounded division is monotone; it is not for SCAD and MC+ in their
    # nonconvex regime. A zero column's update is always 0.
    settled = [cj <= 0.0 or level < pen.limit for cj, level in zip(diag, levels)]
    lo = -lam
    tol = max(KKT_TOL, p * linalg.EPS * float(np.max(np.abs(xty))))
    # grad is maintained as X'(Y - X beta), in place only, so that g, a
    # memoryview of its buffer, reads it as Python floats
    grad = xty - _gram_times(gram, beta)
    g = memoryview(grad)
    converged = False
    sweeps = 0
    # sweeps since a coordinate last moved to, from or across zero
    stable, accepts = 0, 0
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
                grad -= step * gram[j]
                coef[j] = new
                if old * new <= 0.0:
                    moved = True
                    if new == 0.0:
                        gram.release(j)
                if step > max_change:
                    max_change = step
                elif -step > max_change:
                    max_change = -step
        if max_change < COORD_TOL:
            beta = np.array(coef)
            np.subtract(xty, _gram_times(gram, beta), out=grad)  # exact refresh before the KKT check
            if kkt_residual(grad, beta, lam, pen) < tol:
                converged = True
                break
        elif sweeps % 64 == 0:
            beta = np.array(coef)
            np.subtract(xty, _gram_times(gram, beta), out=grad)  # cap incremental drift
        stable = 0 if moved else stable + 1
        if stable == 2:
            beta = np.array(coef)
            polished = _polish(gram, lam, pen, beta)
            if polished is not None:
                accepts += 1
                for j in np.flatnonzero((beta != 0.0) & (polished == 0.0)).tolist():
                    gram.release(j)
                coef = gram.fit = polished.tolist()
                np.subtract(xty, _gram_times(gram, polished), out=grad)

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


class _Gram(dict):
    """A validated design (X, Y), kept with its X'X and X'Y for every fit
    on it; gram[j] is row j of X'X, which is column j. Where n >= p, one
    m.T @ m holds every row. Where p > n, the store keeps the rows of the
    running fit's nonzero coordinates, in blocks of 64 slots, and the
    diagonal is one einsum:

    - row j is built on its first read as X'x_j by itself, so its bits
      depend on (X, j) only, and a row built again has the same bits;
    - ``release(j)`` marks row j as one whose coordinate has moved to
      zero; it stays readable until its slot is taken;
    - a new row takes the next free slot of the last block; when every
      block is full, the slot of a released row whose coordinate is still
      zero in ``fit``, the running fit's coefficient list; only then a new
      block. A store that fits in its blocks evicts no row;
    - ``pack()``, once 64 released rows are still zero and there is more
      than one block, moves the other rows in place to the lowest slots
      and frees the blocks left empty.

    NumericalError as ``linalg.normal_equations`` raises it, and per row."""

    def __init__(self, m, v):
        self.m, self.v = m, v
        if m.shape[0] >= m.shape[1]:
            block, self.xty = linalg.normal_equations(m, v)
            self.diag = block.diagonal()
            self.rows = block.__getitem__  # rows(idx) is block[idx]
            self.cell = lambda idx: _take(block, idx, idx)
            self.release = self.pack = lambda *_: None
            self.update(enumerate(block))
        else:
            self.diag = linalg.finite("X'X", lambda: np.einsum("ij,ij->j", m, m))
            self.xty = linalg.finite("X'Y", lambda: m.T @ v)
            linalg.require_resolved(m, self.diag)
            # row j is blocks[k // 64][k % 64], k = slot[j], while held;
            # slots below ``used`` are taken
            self.blocks, self.slot, self.used = [], np.full(m.shape[1], -1), 0
            self.fit = [0.0] * m.shape[1]
            self.released = {}  # insertion-ordered, oldest first

    def __missing__(self, j):
        """Row j, built by itself, in the slot ``_take_slot`` gives it."""
        column = linalg.finite("X'X", lambda: self.m.T @ self.m[:, j])
        k = self.slot[j] = self._take_slot()
        row = self[j] = self.blocks[k // 64][k % 64]
        row[:] = column
        return row

    def _take_slot(self):
        """The slot for a new row, by the rule in the class docstring; the
        oldest released rows are looked at first."""
        if self.used == 64 * len(self.blocks):
            while self.released:
                i = next(iter(self.released))
                del self.released[i]
                if self.fit[i] == 0.0:
                    k, self.slot[i] = self.slot[i], -1
                    del self[i]
                    return k
            self.blocks.append(np.empty((64, self.slot.size)))
        self.used += 1
        return self.used - 1

    def release(self, j):
        """Row j's coordinate has moved to zero: its slot may be taken."""
        self.released[j] = None

    def pack(self):
        """Free the blocks that the rows of ``fit``'s nonzeros leave empty
        once 64 released rows are still zero, copying no block."""
        if len(self.released) < 64 or len(self.blocks) < 2:
            return
        self.released = {j: None for j in self.released if self.fit[j] == 0.0}
        if len(self.released) < 64:
            return
        self.released.clear()
        held = np.flatnonzero(self.slot >= 0)
        zero = np.array(self.fit)[held] == 0.0
        for j in held[zero].tolist():
            del self[j]
        self.slot[held[zero]] = -1
        live = held[~zero]
        for t, j in enumerate(live[np.argsort(self.slot[live])].tolist()):
            s = self.slot[j]
            if s != t:
                row = self[j] = self.blocks[t // 64][t % 64]
                row[:] = self.blocks[s // 64][s % 64]
                self.slot[j] = t
        self.used = live.size
        del self.blocks[-(-self.used // 64):]

    def rows(self, idx, cols=None):
        """Rows ``idx`` (distinct indices) of X'X, or their entries in
        columns ``cols``, stacked in a new array."""
        for j in idx[self.slot[idx] < 0].tolist():
            self[j]
        k = self.slot[idx]
        if len(self.blocks) == 1:
            return _take(self.blocks[0], k, cols)
        out = np.empty((k.size, self.slot.size if cols is None else cols.size))
        for b, block in enumerate(self.blocks):
            inside = k // 64 == b
            out[inside] = _take(block, k[inside] % 64, cols)
        return out

    def cell(self, idx):
        """X'X at rows and columns ``idx``, gathered from the blocks into
        a new |idx| x |idx| array."""
        return self.rows(idx, idx)


def _take(block, rows, cols):
    """block[rows], or its entries in columns ``cols`` (all for None)."""
    return block[rows] if cols is None else block[rows[:, None], cols]


def _gram_times(gram, beta):
    """X'X @ beta from the ``_Gram`` rows at beta's nonzeros, packed
    first: exact zeros for a zero beta, and a NaN coefficient is nonzero,
    so it passes on."""
    gram.pack()
    support = np.flatnonzero(beta)
    return beta[support] @ gram.rows(support)


def _polish(gram: _Gram, lam: float, pen: PenaltySpec, beta):
    """A point of the objective no higher than beta's, found by exact cell
    solves, or None where there is none to take.

    On the cell with support A, signs s and pieces with curvatures c and
    linear terms l (the rows of ``pen.pieces``) the objective is the
    quadratic whose stationary point solves (G_AA + lam * diag(c_A)) b_A =
    (X'Y)_A - lam * s_A * l_A. A point of |b_j| on a breakpoint starts in
    the lower piece, as in ``pen_derivative``. Each pass solves the
    current cell; a solution inside it ends the search. Otherwise the
    point moves to another cell, and that cell is solved on the next pass:

    - where the cell matrix has a Cholesky factor, b_A walks toward the
      solution, along which the cell quadratic falls, and stops at the
      first coordinate to reach zero, which drops out, or a breakpoint,
      where it is set exactly and moves to the next piece;
    - where it has none and every c_A >= 0, so that the cell is convex,
      b_A walks along the eigenvector d of its smallest eigenvalue. There
      X_A d and c_A * d are about 0, so the objective changes by t * lam *
      (s * l)'d: d is oriented with (s * l)'d < 0. At lam = 0, or with (s
      * l)'d at rounding level, the cell has a flat set of minimisers and
      the search gives up, as it does where some c < 0 (it can be concave).
      With |A| > n and no lam * c > 0, the cell is G_AA, of rank <= n, plus
      a diagonal <= 0: it has no factor, whatever rounding would say.

    Every coordinate but the walk's first must keep its sign and piece.
    The final point is kept only if its objective does not rise above
    beta's.
    """
    m, v = gram.m, gram.v
    breaks = np.array(pen.breakpoints)
    curvature, linear, _ = np.array(pen.pieces).T
    bounds = np.concatenate([[0.0], breaks, [np.inf]])  # piece k spans bounds[k : k + 2]
    point = beta.copy()
    pieces = np.searchsorted(breaks, np.abs(point))

    def inside(size, k):
        return (size > 0.0) & (size >= bounds[k]) & (size <= bounds[k + 1])

    for _ in range(np.count_nonzero(beta) * curvature.size):
        active = np.flatnonzero(point)
        current, k = point[active], pieces[active]
        signs = np.sign(current)
        shift, pull = lam * curvature[k], signs * linear[k]
        cell = gram.cell(active)
        cell[np.diag_indices_from(cell)] += shift
        try:
            if active.size > m.shape[0] and (shift <= 0.0).all():
                raise np.linalg.LinAlgError("rank X_A <= n < |A|")
            np.linalg.cholesky(cell)
            # a rounding-positive factor of a singular cell can leave LU a zero pivot
            solved = np.linalg.solve(cell, gram.xty[active] - lam * pull)
        except np.linalg.LinAlgError:
            if lam == 0.0 or (curvature[k] < 0.0).any():
                return None
            direction = np.linalg.eigh(cell)[1][:, 0]
            slope = float(pull @ direction)
            if abs(slope) <= active.size * np.finfo(float).eps:
                return None
            if slope > 0.0:
                direction = -direction
        else:
            if inside(signs * solved, k).all():
                point[active] = solved
                break
            direction = solved - current
        size, rate = signs * current, signs * direction
        ends = np.where(rate < 0.0, bounds[k], bounds[k + 1])
        events = np.flatnonzero((rate < 0.0) | (rate > 0.0) & (ends < np.inf))
        if events.size == 0:  # only a NaN direction has none
            return None
        times = (ends[events] - size[events]) / rate[events]
        step = np.argmin(times)
        first = events[step]
        walked = current + times[step] * direction
        if ends[first] == 0.0:  # reaching zero, it leaves the cell
            walked[first] = signs[first] = 0.0
        else:
            walked[first] = signs[first] * ends[first]
            k[first] += 1 if rate[first] > 0.0 else -1
        # a second coordinate reaching zero, or crossing a breakpoint, with
        # the first is a tie, and rejected
        if not (inside(signs * walked, k) | (signs == 0.0)).all():
            return None
        point[active], pieces[active] = walked, k
    if objective_value(m, v, lam, pen, point) > objective_value(m, v, lam, pen, beta):
        return None
    return point


def solve_path(x, y, lambdas, pen: PenaltySpec) -> list[FitResult]:
    """Warm-started fits along a decreasing grid of positive lambdas."""
    lams = [float(t) for t in lambdas]
    if not lams:
        raise ValueError("lambda grid is empty")
    for t in lams:
        linalg.require_scalar("lambda grid entries", t, "positive")
    linalg.require_descending("lambda grid", lams)
    gram = _Gram(*linalg.as_design(x, y))
    results = [_descent(gram, lams[0], pen, None)]
    for lam in lams[1:]:
        results.append(_descent(gram, lam, pen, results[-1].beta))
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
    gram = _Gram(*linalg.as_design(x, y))
    scale = float(np.max(np.abs(gram.xty)))  # lambda_max(x, y)
    rng = np.random.default_rng(0)
    fits: list[FitResult] = []
    for _ in range(starts):
        init = rng.uniform(-scale, scale, size=gram.m.shape[1])
        fit = _descent(gram, lam, pen, init)
        if all(np.max(np.abs(fit.beta - f.beta)) > DISTINCT_TOL for f in fits):
            fits.append(fit)
    fits.sort(key=lambda f: (f.objective, tuple(f.beta)))
    return fits
