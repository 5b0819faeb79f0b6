"""Executable certificates for the preconditioning equivalences.

Each check runs a batch of randomized trials, computes the two sides of
one algebraic identity through independent code paths, and reports the
worst sup-norm discrepancy together with the seed that produced it.

Checks and their identities (all fits use the objective with the 0.5
factor, ``0.5 * ||Y - X b||^2 + lam * sum pen(b_j)``; in the convention
without the 0.5 factor every lambda below corresponds to 2 * lambda):

  lemma1        orthonormal X:   Lasso fit  ==  t_lam(beta_ols)
  thm1          full rank, n>p:  Lasso on puffer(X, Y)  ==  t_lam(beta_ols)
  thm2          Lasso on puffer_scaled(X, Y) selects exactly
                {j : |Z_j| > lam * sqrt(n) / sigma}
                == {j : p_j <= 2 (1 - Phi(lam sqrt(n) / sigma))},
                with coefficients t_lam(sigma Z_j / sqrt(n))
  thm3          p>=n: every local minimum on puffer_tau data satisfies
                ridge_j(tau) - P_tau(beta)_j == lam * pen'(beta_j) on the
                active set and |...| <= lam off it
  lemma2        P_tau(v) == (F_tau X)' F_tau X v  and
                ridge(tau) == (F_tau X)' F_tau Y
  eq10_gap      distinct local minima under concave penalties differ by
                at most 2 * lam per coordinate after row-space projection
  thm1_general / thm2_general   the lemma1/thm1/thm2 statements with the
                SCAD and MC+ thresholding maps in place of t_lam

Each check draws its problems from its own module-level family, looked
up by name when it runs.

Negative controls guard against trivially-passing checks: thm1 without
the preconditioner and thm2 with the unscaled transform must both show
discrepancies above 1e-2; if they do not, the report fails with the
sentinel discrepancy 1.0. eq10_gap fails the same way when it finds no
pair of distinct local minima to compare, and thm3 when it checks no
converged local minimum; both count the non-converged multistart fits
they exclude. A gap that is not finite raises NumericalError.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import estimators, linalg, preconditioners, solver
from .errors import NumericalError
from .penalties import PenaltySpec, lasso, mcp, pen_derivative, scad, univariate_threshold

Problem = tuple[np.ndarray, np.ndarray, float]
Generator = Callable[[int], Problem]

#: tolerance for every theorem check: 10x the solver's KKT tolerance
THEOREM_TOL = 10.0 * solver.KKT_TOL
LEMMA2_TOL = 1e-8
TIE_TOL = 1e-9
NEGATIVE_CONTROL_MIN = 1e-2
#: sentinel discrepancy reported when a negative control fails to fail
NEGATIVE_CONTROL_SENTINEL = 1.0
#: z with 2 * (1 - Phi(z)) == 0.05 in estimators.two_sided_p; 1.96 is the
#: conventional rounding
Z95 = 1.959963984540054


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    trials: int
    max_discrepancy: float
    tolerance: float
    passed: bool
    worst_case_seed: int
    details: dict = field(default_factory=dict)


def _report(theorem_id, trials, max_discrepancy, tolerance, worst_case_seed, **details):
    for name, value in {"max_discrepancy": max_discrepancy, **details}.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalError(f"{theorem_id}: {name} is {value} at seed {worst_case_seed}")
    return TheoremReport(
        theorem_id=theorem_id,
        trials=trials,
        max_discrepancy=float(max_discrepancy),
        tolerance=float(tolerance),
        passed=bool(max_discrepancy <= tolerance),
        worst_case_seed=int(worst_case_seed),
        details=details,
    )


def _trials(seed: int, trials: int, trial) -> list[tuple]:
    """Rows (s, *trial(s)) for s = seed, ..., seed + trials - 1. A check
    without trials would certify nothing, so a count below 1 or not an
    integer raises; so does a negative seed, which the families'
    generators cannot take."""
    linalg.require_scalar("trials", trials, "positive")
    if not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got {trials}")
    linalg.require_scalar("seed", seed)
    return [(s, *trial(s)) for s in range(seed, seed + trials)]


def _reduce(rows, col: int = 1):
    """Max of column col over the rows and its seed; ties resolve to the
    first seed, and the first NaN, if any, counts as the maximum."""
    column = np.array([row[col] for row in rows], dtype=float)
    i = int(np.argmax(column))
    return float(column[i]), rows[i][0]


def _lambda_grid(scale: float, count: int | None):
    """Log-spaced ascending grid reaching past the all-zero threshold at the
    top, or for count=None one scale / 4; every lambda is positive."""
    s = max(float(scale), 1e-8)
    return (0.25 * s,) if count is None else np.geomspace(1e-3 * s, 1.2 * s, count)


# ---------------------------------------------------------------------------
# problem generators: each maps a seed to one (X, Y, sigma) problem
# ---------------------------------------------------------------------------

NOISE = 0.5


def _signal(rng, p, density=0.7):
    beta = rng.uniform(0.5, 2.5, size=p) * rng.choice([-1.0, 1.0], size=p)
    beta[rng.random(p) >= density] = 0.0
    return beta


def _problem(rng, x) -> Problem:
    """x with a sparse signal plus N(0, NOISE^2) noise as its response."""
    n, p = x.shape
    return x, x @ _signal(rng, p) + NOISE * rng.standard_normal(n), NOISE


def _tall(seed: int, p_max: int = 10, n_max: int = 40, margin: int = 4):
    """The seed's generator and its shape draw: 3 <= p <= p_max, then
    2p + margin <= n <= n_max."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, p_max + 1))
    return rng, int(rng.integers(2 * p + margin, n_max + 1)), p


def orthonormal_problems(seed: int) -> Problem:
    """Designs with exactly orthonormal columns, n > p."""
    rng, n, p = _tall(seed, p_max=16, n_max=48, margin=2)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return _problem(rng, q)


def equicorrelated_problems(rho: float) -> Generator:
    """Columns with common pairwise correlation rho."""
    c1 = math.sqrt(1.0 - rho)

    def gen(seed: int) -> Problem:
        rng, n, p = _tall(seed)
        z = rng.standard_normal((n, p))
        c2 = math.sqrt(1.0 - rho + p * rho)
        return _problem(rng, c1 * z + (c2 - c1) * z.mean(axis=1, keepdims=True))

    return gen


def heteroskedastic_problems(seed: int) -> Problem:
    """Column norms spanning two orders of magnitude."""
    rng, n, p = _tall(seed)
    return _problem(rng, rng.standard_normal((n, p)) * np.geomspace(0.1, 10.0, p))


def spiked_problems(seed: int) -> Problem:
    """Spiked singular spectrum with condition number up to 1e4."""
    rng, n, p = _tall(seed)
    cond = 10.0 ** rng.uniform(1.0, 4.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return _problem(rng, (u * np.geomspace(1.0, 1.0 / cond, p)) @ v.T)


_FULL_RANK = (
    *map(equicorrelated_problems, (0.0, 0.5, 0.9)),
    heteroskedastic_problems,
    spiked_problems,
)
_INFERENCE_SCALE = (heteroskedastic_problems, *_FULL_RANK[1:3], spiked_problems)  # rho = 0.5, 0.9


def mixed_full_rank_problems(seed: int) -> Problem:
    """Rotates between the equicorrelated, heteroskedastic and spiked families."""
    return _FULL_RANK[seed % len(_FULL_RANK)](seed)


def inference_scale_problems(seed: int) -> Problem:
    """Full-rank designs whose signal is drawn in standard-error units,
    keeping |Z_j| small enough that two-sided p-values stay above the
    float64 underflow threshold (reached near |z| = 38.6)."""
    x, _, _ = _INFERENCE_SCALE[seed % len(_INFERENCE_SCALE)](seed)
    rng = np.random.default_rng(seed + 0x51ED5EED)
    n, p = x.shape
    nu = linalg.gram_inverse_diagonal(x)
    u = rng.uniform(0.3, 2.5, size=p) * rng.choice([-1.0, 1.0], size=p)
    u[rng.random(p) >= 0.75] = 0.0
    beta = u * NOISE * np.sqrt(nu)
    return x, x @ beta + NOISE * rng.standard_normal(n), NOISE


def wide_problems(seed: int) -> Problem:
    """p >= n designs with singular values kept in [0.5, 3] so the tau=0
    transforms stay well conditioned."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    p = int(rng.integers(n + 4, 37))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((p, n)))
    d = np.sort(rng.uniform(0.5, 3.0, size=n))[::-1]
    return _problem(rng, (u * d) @ v.T)


def clustered_wide_problems(seed: int) -> Problem:
    """Tiny p > n designs with near-duplicate columns; under concave
    penalties these routinely admit several local minima."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    base = rng.standard_normal((n, n))
    cols = []
    for j in range(n):
        cols.append(base[:, j])
        cols.append(base[:, j] + 0.05 * rng.standard_normal(n))
    x = np.column_stack(cols)
    x /= np.linalg.norm(x, axis=0)
    y = x @ _signal(rng, x.shape[1], density=0.9) + 0.3 * rng.standard_normal(n)
    return x, y, 0.3


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _ols(x, y, sigma):
    return estimators.ols(x, y)


def _scaled_z(x, y, sigma):
    """sigma * Z_j / sqrt(n), which equals N^-1 beta_ols."""
    return sigma * estimators.z_stats(x, y, sigma) / math.sqrt(x.shape[0])


def _threshold_gap(x, y, b, pen: PenaltySpec, lambdas) -> tuple[float, np.ndarray]:
    """Fit (x, y) at each lambda; return the worst sup-norm gap between a
    fit and the thresholding map applied to b, and the fitted
    coefficients, one row per lambda in the order given. The fits are one
    ``solver.solve_path`` over the lambdas in descending order; the
    thresholding side never reads them."""
    lams = np.array(lambdas, dtype=float)
    order = np.argsort(-lams)
    betas = np.empty((lams.size, b.size))
    betas[order] = [fit.beta for fit in solver.solve_path(x, y, lams[order], pen)]
    targets = [[univariate_threshold(pen, t, lam) for t in b.tolist()] for lam in lams.tolist()]
    return float(np.max(np.abs(betas - targets))), betas


def _threshold_check(gen, seed, trials, transform, coefs, pen: PenaltySpec, n_lambdas: int | None):
    """The thresholding identity over the problems gen(s) of the trials.

    The fit on data preconditioned by ``transform`` (a preconditioners
    function, or None for the raw data) is compared with the thresholding
    map applied to b = coefs(X, Y, sigma). b comes from the untransformed
    X through estimators, never from a fit, so the two sides share no
    code path. The lambdas are ``_lambda_grid(max |b|, n_lambdas)``.
    Returns the worst gap and its seed.
    """

    def trial(s: int) -> tuple[float]:
        x, y, sigma = gen(s)
        b = coefs(x, y, sigma)
        if transform is not None:
            pair = transform(x, y)
            x, y = pair.x_tilde, pair.y_tilde
        lambdas = _lambda_grid(np.max(np.abs(b)), n_lambdas)
        return (_threshold_gap(x, y, b, pen, lambdas)[0],)

    return _reduce(_trials(seed, trials, trial))


def _negative_control(disc, gen, transform, coefs, seed: int, trials: int) -> tuple[float, float]:
    """Run the Lasso identity where it must break by more than
    NEGATIVE_CONTROL_MIN; if it does not, raise disc to the sentinel.
    Returns disc and the control's worst gap."""
    control_worst = _threshold_check(gen, seed, min(trials, 24), transform, coefs, lasso(), None)[0]
    if control_worst <= NEGATIVE_CONTROL_MIN:
        disc = max(disc, NEGATIVE_CONTROL_SENTINEL)
    return disc, control_worst


def _converged_minima(x, y, lam: float, pen: PenaltySpec, starts: int = 8):
    """The converged multistart local minima, and how many non-converged
    fits were left out of them."""
    fits = solver.multistart_local_minima(x, y, lam, pen, starts)
    converged = [fit for fit in fits if fit.converged]
    return converged, len(fits) - len(converged)


def _project(project, v) -> np.ndarray:
    """project(v), for a ``preconditioners.rowspace_projector``, or NaN where
    v is not finite: the gap is NaN, and _report raises. thm3 and eq10_gap
    build one projector per trial, so X is factored once for all the
    vectors the trial projects."""
    return project(v) if np.isfinite(v).all() else np.full_like(v, np.nan)


def check_lemma1(trials: int, *, seed: int = 0) -> TheoremReport:
    """Orthonormal design: the Lasso fit equals soft-thresholded OLS."""
    disc, worst_seed = _threshold_check(orthonormal_problems, seed, trials, None, _ols, lasso(), 10)
    return _report("lemma1", trials, disc, THEOREM_TOL, worst_seed)


def check_theorem1(trials: int, *, seed: int = 0) -> TheoremReport:
    """Full-rank n > p design: Lasso on puffer data equals thresholded OLS.

    Also runs the negative control: on rho = 0.9 equicorrelated designs
    the same identity without the preconditioner must break by more than
    1e-2 at a mid-path lambda.
    """
    disc, worst_seed = _threshold_check(
        mixed_full_rank_problems, seed, trials, preconditioners.puffer, _ols, lasso(), 10
    )
    disc, control = _negative_control(disc, equicorrelated_problems(0.9), None, _ols, seed, trials)
    return _report("thm1", trials, disc, THEOREM_TOL, worst_seed, negative_control_max=control)


def check_theorem2(trials: int, *, seed: int = 0) -> TheoremReport:
    """Scaled transform: the Lasso active set matches the Z and p-value rules.

    Per lambda the three sets {beta_j != 0}, {|Z_j| > lam sqrt(n)/sigma}
    and {p_j <= 2(1 - Phi(lam sqrt(n)/sigma))} must agree exactly
    (boundary ties within 1e-9 are excluded and counted), and the
    coefficients must equal t_lam(sigma Z_j / sqrt(n)). The
    lam = 1.96 sigma / sqrt(n) instance must reproduce the 0.05-p-value
    selection rule. The negative control swaps in the unscaled transform
    on heteroskedastic designs and must disagree by more than 1e-2.
    """

    def trial(s: int) -> tuple[float, int, int, int]:
        x, y, sigma = inference_scale_problems(s)
        n = x.shape[0]
        inf = estimators.inference(x, y, sigma)
        z = np.abs(inf.z_stats)
        scaled_ols = sigma * inf.z_stats / math.sqrt(n)  # == N^-1 beta_ols
        pair = preconditioners.puffer_scaled(x, y)
        grid = _lambda_grid(np.max(np.abs(scaled_ols)), 25)
        coef_worst, betas = _threshold_gap(pair.x_tilde, pair.y_tilde, scaled_ols, lasso(), grid)
        zthr = grid[:, None] * math.sqrt(n) / sigma  # one row per lambda
        pthr = estimators.p_values(zthr[:, 0])[:, None]
        # boundary ties: |Z_j| within TIE_TOL of the threshold, or both tail
        # probabilities underflow, where the p-value rule cannot discriminate
        tie = (np.abs(z - zthr) < TIE_TOL) | ((inf.p_values == 0.0) & (pthr == 0.0))
        in_z = z > zthr
        agree = ((betas != 0.0) == in_z) & (in_z == (inf.p_values <= pthr))
        mismatches = int(np.count_nonzero(~tie & ~agree))
        # the 0.05 rule: lam = 1.96 sigma / sqrt(n) selects {p_j < .05};
        # |Z_j| inside [Z95, 1.96] is the rounding ambiguity band and is
        # excluded like a tie
        lam05 = 1.96 * sigma / math.sqrt(n)
        fit = solver.solve(pair.x_tilde, pair.y_tilde, lam05, lasso())
        band = (Z95 - TIE_TOL <= z) & (z <= 1.96 + TIE_TOL)
        rule_mismatches = int(np.count_nonzero(~band & ((fit.beta != 0.0) != (inf.p_values < 0.05))))
        return coef_worst, mismatches, rule_mismatches, int(np.count_nonzero(tie) + np.count_nonzero(band))

    rows = _trials(seed, trials, trial)
    coef_disc, worst_seed = _reduce(rows)
    total_mismatches, total_rule, total_ties = (sum(row[k] for row in rows) for k in (2, 3, 4))
    disc = max(coef_disc, float(total_mismatches + total_rule))
    if total_mismatches + total_rule > 0:
        worst_seed = min(s for s, _, m, r, _ in rows if m + r > 0)
    disc, control = _negative_control(  # the unscaled transform, on purpose
        disc, heteroskedastic_problems, preconditioners.puffer, _scaled_z, seed, trials
    )
    return _report(
        "thm2", trials, disc, THEOREM_TOL, worst_seed, set_mismatches=total_mismatches,
        rule_005_mismatches=total_rule, boundary_ties_excluded=total_ties, negative_control_max=control,
    )


def check_theorem3(
    trials: int, pen: PenaltySpec, tau: float, *, seed: int = 0
) -> tuple[TheoremReport, TheoremReport]:
    """p >= n: every local minimum on puffer_tau data, projected to the
    row space, sits within lam of the ridge fit, with exact gap
    lam * pen'(beta_j) on active coordinates.

    Returns the active-coordinate and inactive-coordinate reports.
    """

    def trial(s: int) -> tuple[float, float, int, int]:
        x, y, _ = wide_problems(s)
        pair = preconditioners.puffer_tau(x, y, tau)
        ridge_fit = estimators.ridge(x, y, tau)
        project = preconditioners.rowspace_projector(x, tau)
        lmax = solver.lambda_max(pair.x_tilde, pair.y_tilde)
        active_worst = inactive_worst = 0.0
        skipped = checked = 0
        for lam in np.geomspace(0.05 * lmax, 0.6 * lmax, 4).tolist():
            fits, excluded = _converged_minima(pair.x_tilde, pair.y_tilde, lam, pen)
            skipped += excluded
            checked += len(fits)
            for fit in fits:
                gap = ridge_fit - _project(project, fit.beta)
                active = fit.beta != 0.0
                expected = [lam * pen_derivative(pen, float(b)) for b in fit.beta[active]]
                active_worst = np.maximum(active_worst, np.max(np.abs(gap[active] - expected), initial=0.0))
                inactive_worst = np.maximum(inactive_worst, np.max(np.abs(gap[~active]) - lam, initial=0.0))
        return active_worst, inactive_worst, skipped, checked

    rows = _trials(seed, trials, trial)
    active_disc, active_seed = _reduce(rows, 1)
    inactive_disc, inactive_seed = _reduce(rows, 2)
    if not any(row[4] for row in rows):
        # no converged fit means the identity was never tested
        active_disc = max(active_disc, NEGATIVE_CONTROL_SENTINEL)
        inactive_disc = max(inactive_disc, NEGATIVE_CONTROL_SENTINEL)
    info = {"penalty": pen.kind, "tau": tau, "nonconverged_excluded": sum(row[3] for row in rows)}
    return (
        _report("thm3_active", trials, active_disc, THEOREM_TOL, active_seed, **info),
        _report("thm3_inactive", trials, inactive_disc, THEOREM_TOL, inactive_seed, **info),
    )


def check_lemma2(trials: int, *, seed: int = 0) -> TheoremReport:
    """Both factorization identities behind the ridge connection, compared
    against direct linear solves over randomized (X, v, Y, tau) tuples.
    Both factored sides read the trial's one puffer_tau pair (the ridge
    side is (F_tau X)' F_tau Y); the direct sides,
    project_rowspace and estimators.ridge, each factor X on their own."""
    taus = (0.0, 0.1, 1.0, 10.0)

    def trial(s: int) -> tuple[float]:
        x, y, _ = wide_problems(s)
        tau = taus[s % len(taus)]
        rng = np.random.default_rng(s + 0x9E3779B9)
        v = rng.standard_normal(x.shape[1])
        pair = preconditioners.puffer_tau(x, y, tau)
        proj_direct = preconditioners.project_rowspace(x, v, tau)
        proj_factored = pair.x_tilde.T @ (pair.x_tilde @ v)
        ridge_direct = estimators.ridge(x, y, tau)
        ridge_factored = pair.x_tilde.T @ pair.y_tilde
        gaps = np.concatenate([proj_direct - proj_factored, ridge_direct - ridge_factored])
        return (float(np.max(np.abs(gaps))),)

    disc, worst_seed = _reduce(_trials(seed, trials, trial))
    return _report("lemma2", trials, disc, LEMMA2_TOL, worst_seed)


def check_local_min_gap(trials: int, *, seed: int = 0) -> TheoremReport:
    """Distinct local minima under the concave SCAD and MC+ (gamma = 1.5)
    penalties stay within 2 * lam per row-space coordinate; pairs at
    different lambdas obey the lam1 + lam2 variant. Non-converged
    multistart fits are excluded and counted."""
    pens = (scad(), mcp(1.5))

    def trial(s: int) -> tuple[float, int, int]:
        x, y, _ = clustered_wide_problems(s)
        pair = preconditioners.puffer_tau(x, y, 0.0)
        project = preconditioners.rowspace_projector(x, 0.0)
        lmax = solver.lambda_max(pair.x_tilde, pair.y_tilde)
        groups: list[tuple[float, np.ndarray]] = []
        skipped = 0
        for frac in (0.35, 0.55):
            lam = frac * lmax
            for pen in pens:
                fits, excluded = _converged_minima(pair.x_tilde, pair.y_tilde, lam, pen, 12)
                skipped += excluded
                groups += [(lam, fit.beta) for fit in fits]
        # a pair whose distance is NaN counts as distinct
        excess = [
            np.max(np.abs(_project(project, beta1 - beta2))) - (lam1 + lam2)
            for (lam1, beta1), (lam2, beta2) in itertools.combinations(groups, 2)
            if not np.max(np.abs(beta1 - beta2)) <= solver.DISTINCT_TOL
        ]
        return np.max(excess, initial=0.0), len(excess), skipped

    rows = _trials(seed, trials, trial)
    disc, worst_seed = _reduce(rows)
    total_pairs = sum(row[2] for row in rows)
    if total_pairs == 0:
        # no pair of distinct minima means the bound was never tested
        disc = max(disc, NEGATIVE_CONTROL_SENTINEL)
    return _report(
        "eq10_gap", trials, disc, THEOREM_TOL, worst_seed, pairs_checked=total_pairs,
        trials_without_pairs=sum(1 for row in rows if row[2] == 0),
        nonconverged_excluded=sum(row[3] for row in rows),
    )


def check_generalized_theorem1(trials: int, pen: PenaltySpec, *, seed: int = 0) -> TheoremReport:
    """Puffer data with a regular sparse penalty: the fit equals the
    penalty's own thresholding map applied to the OLS coefficients."""
    disc, worst_seed = _threshold_check(
        mixed_full_rank_problems, seed, trials, preconditioners.puffer, _ols, pen, 5
    )
    return _report("thm1_general", trials, disc, THEOREM_TOL, worst_seed, penalty=pen.kind)


def check_generalized_theorem2(trials: int, pen: PenaltySpec, *, seed: int = 0) -> TheoremReport:
    """Scaled-transform analogue: coefficients equal the thresholding map
    applied to sigma * Z_j / sqrt(n)."""
    disc, worst_seed = _threshold_check(
        inference_scale_problems, seed, trials, preconditioners.puffer_scaled, _scaled_z, pen, 5
    )
    return _report("thm2_general", trials, disc, THEOREM_TOL, worst_seed, penalty=pen.kind)


def _merge(theorem_id: str, reports: list[TheoremReport]) -> TheoremReport:
    """Aggregate same-identity reports by worst discrepancy; the details
    are the worst component's, except that exclusion counts are summed
    over all components."""
    worst = max(reports, key=lambda r: (r.max_discrepancy, -r.worst_case_seed))
    details = dict(worst.details)
    if "nonconverged_excluded" in details:
        details["nonconverged_excluded"] = sum(r.details["nonconverged_excluded"] for r in reports)
    details["components"] = len(reports)
    return _report(
        theorem_id,
        sum(r.trials for r in reports),
        worst.max_discrepancy,
        worst.tolerance,
        worst.worst_case_seed,
        **details,
    )


DEFAULT_TRIALS = {
    "lemma1": 200,
    "thm1": 200,
    "thm2": 200,
    "thm3": 8,  # per (penalty, tau) combination
    "lemma2": 500,
    "eq10_gap": 48,
    "generalized": 60,  # per penalty and identity
}

THM3_TAUS = (0.0, 0.1, 1.0)
THM3_PENALTIES = (lasso(), scad(), mcp())


def default_suite(seed: int = 0, *, trials: int | None = None) -> list[TheoremReport]:
    """Run every check with its trial budget.

    ``trials`` replaces every budget of DEFAULT_TRIALS, except thm3's,
    which becomes max(2, trials // 25) per (penalty, tau) combination.
    Deterministic for a given seed, which may not be negative; per-check
    seed blocks are disjoint so trial streams never collide.
    """
    linalg.require_scalar("seed", seed)
    t = DEFAULT_TRIALS
    if trials is not None:
        t = {**dict.fromkeys(DEFAULT_TRIALS, trials), "thm3": max(2, trials // 25)}
    blocks = itertools.count(seed + 1_000_003, 1_000_003)
    reports = [
        check_lemma1(t["lemma1"], seed=next(blocks)),
        check_theorem1(t["thm1"], seed=next(blocks)),
        check_theorem2(t["thm2"], seed=next(blocks)),
    ]
    thm3 = [
        check_theorem3(t["thm3"], pen, tau, seed=next(blocks))
        for pen, tau in itertools.product(THM3_PENALTIES, THM3_TAUS)
    ]
    reports.append(_merge("thm3_active", [active for active, _ in thm3]))
    reports.append(_merge("thm3_inactive", [inactive for _, inactive in thm3]))
    reports.append(check_local_min_gap(t["eq10_gap"], seed=next(blocks)))
    reports.append(check_lemma2(t["lemma2"], seed=next(blocks)))
    g = t["generalized"]
    gen1 = [check_generalized_theorem1(g, pen, seed=next(blocks)) for pen in (scad(), mcp())]
    gen2 = [check_generalized_theorem2(g, pen, seed=next(blocks)) for pen in (scad(), mcp())]
    return reports + [_merge("thm1_general", gen1), _merge("thm2_general", gen2)]
