import ast
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from puffer_lasso import estimators, preconditioners, solver, verify
from puffer_lasso.errors import NumericalError
from puffer_lasso.penalties import elastic_net, lasso, mcp, scad
from puffer_lasso.verify import (
    TheoremReport,
    check_generalized_theorem1,
    check_generalized_theorem2,
    check_lemma1,
    check_lemma2,
    check_local_min_gap,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    equicorrelated_problems,
    heteroskedastic_problems,
    inference_scale_problems,
    mixed_full_rank_problems,
    orthonormal_problems,
    spiked_problems,
    wide_problems,
)

import oracles

# every check as f(trials=, seed=)
CHECKS = {
    "lemma1": check_lemma1,
    "thm1": check_theorem1,
    "thm2": check_theorem2,
    "thm3": lambda trials, seed: check_theorem3(trials, mcp(), 0.1, seed=seed),
    "lemma2": check_lemma2,
    "eq10_gap": check_local_min_gap,
    "thm1_general": lambda trials, seed: check_generalized_theorem1(trials, scad(), seed=seed),
    "thm2_general": lambda trials, seed: check_generalized_theorem2(trials, scad(), seed=seed),
    "default_suite": lambda trials, seed: verify.default_suite(seed, trials=trials),
}


def nan_fits(monkeypatch):
    solve, solve_path = solver.solve, solver.solve_path

    def nan_beta(fit):
        return dataclasses.replace(fit, beta=np.full_like(fit.beta, np.nan))

    monkeypatch.setattr(solver, "solve", lambda *a, **k: nan_beta(solve(*a, **k)))
    monkeypatch.setattr(solver, "solve_path", lambda *a, **k: [nan_beta(f) for f in solve_path(*a, **k)])


def nan_result(module, name):
    def inject(monkeypatch):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: np.full_like(original(*a, **k), np.nan))

    return inject


def nan_minima(monkeypatch):
    minima = solver.multistart_local_minima

    def nan_multistart(*args, **kwargs):
        fits = minima(*args, **kwargs)
        return [dataclasses.replace(f, beta=np.full_like(f.beta, np.nan), converged=True) for f in fits]

    monkeypatch.setattr(solver, "multistart_local_minima", nan_multistart)


# per check of CHECKS, named before any "/": the injection that turns its
# gaps into NaN, the report that must raise, and a trial count that
# reaches the NaN
NAN_INJECTIONS = {
    "lemma1": (nan_fits, "lemma1", 2),
    "thm1": (nan_fits, "thm1", 2),
    "thm2": (nan_fits, "thm2", 2),
    "thm3": (nan_result(preconditioners, "project_rowspace"), "thm3_active", 2),
    "lemma2": (nan_result(estimators, "ridge"), "lemma2", 2),
    "eq10_gap": (nan_result(preconditioners, "project_rowspace"), "eq10_gap", 4),
    "thm1_general": (nan_fits, "thm1_general", 2),
    "thm2_general": (nan_fits, "thm2_general", 2),
    # a non-finite local minimum used to reach project_rowspace's DataError
    "thm3/nan_minima": (nan_minima, "thm3_active", 1),
    "eq10_gap/nan_minima": (nan_minima, "eq10_gap", 1),
}


class TestGenerators:
    def test_orthonormal_columns(self):
        x, y, _ = orthonormal_problems(3)
        p = x.shape[1]
        assert np.max(np.abs(x.T @ x - np.eye(p))) <= 1e-12
        assert y.shape == (x.shape[0],)

    def test_equicorrelated_population_structure(self):
        # the mixing map must reproduce C = (1-rho) I + rho J exactly
        rho = 0.9
        gen = equicorrelated_problems(rho)
        x, _, _ = gen(1)
        p = x.shape[1]
        c1 = np.sqrt(1 - rho)
        c2 = np.sqrt(1 - rho + p * rho)
        m = c1 * (np.eye(p) - np.ones((p, p)) / p) + c2 * np.ones((p, p)) / p
        target = (1 - rho) * np.eye(p) + rho * np.ones((p, p))
        assert np.max(np.abs(m.T @ m - target)) <= 1e-12

    def test_heteroskedastic_column_norm_span(self):
        x, _, _ = heteroskedastic_problems(5)
        norms = np.linalg.norm(x, axis=0)
        assert norms.max() / norms.min() >= 10.0

    def test_spiked_condition_number(self):
        x, _, _ = spiked_problems(7)
        d = np.linalg.svd(x, compute_uv=False)
        assert d[0] / d[-1] <= 1.01e4

    def test_wide_full_row_rank(self):
        x, _, _ = wide_problems(11)
        n, p = x.shape
        assert p >= n
        d = np.linalg.svd(x, compute_uv=False)
        assert d[-1] >= 0.4

    def test_inference_scale_keeps_z_moderate(self):
        gen = inference_scale_problems
        for seed in range(12):
            x, y, sigma = gen(seed)
            z = estimators.z_stats(x, y, sigma)
            assert np.max(np.abs(z)) < 38.0

    def test_deterministic(self):
        gen = mixed_full_rank_problems
        x1, y1, s1 = gen(42)
        x2, y2, s2 = gen(42)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2) and s1 == s2


class TestReports:
    def test_passed_iff_within_tolerance(self):
        r = verify._report("lemma1", 5, 1e-9, 1e-6, 3)
        assert r.passed
        r = verify._report("lemma1", 5, 2e-6, 1e-6, 3)
        assert not r.passed

    def test_lemma1_small_run(self):
        report = check_lemma1(trials=20, seed=7)
        assert report.passed
        assert report.trials == 20
        assert report.theorem_id == "lemma1"

    def test_theorem1_small_run_with_control(self):
        report = check_theorem1(trials=20, seed=7)
        assert report.passed
        assert report.details["negative_control_max"] > 1e-2

    def test_theorem2_small_run(self):
        report = check_theorem2(trials=20, seed=7)
        assert report.passed
        assert report.details["set_mismatches"] == 0
        assert report.details["rule_005_mismatches"] == 0
        assert report.details["negative_control_max"] > 1e-2

    @pytest.mark.parametrize("tau", [0.0, 0.1, 1.0])
    def test_theorem3_small_run(self, tau):
        active, inactive = check_theorem3(trials=3, pen=mcp(), tau=tau, seed=3)
        assert active.passed and inactive.passed
        assert active.theorem_id == "thm3_active"
        assert inactive.theorem_id == "thm3_inactive"

    def test_lemma2_small_run(self):
        report = check_lemma2(trials=40, seed=5)
        assert report.passed
        assert report.tolerance == 1e-8

    def test_local_min_gap_finds_pairs(self):
        report = check_local_min_gap(trials=12, seed=0)
        assert report.passed
        assert report.details["pairs_checked"] >= 1

    def test_local_min_gap_fails_without_pairs(self, monkeypatch):
        # every multistart yields the same single minimum, the all-zero
        # fit, so no pair is left to check: the bound was never tested and
        # the report must fail with the sentinel
        def single_fit(x, y, lam, pen, starts=8):
            return [solver.solve(x, y, 10.0 * solver.lambda_max(x, y), pen)]

        monkeypatch.setattr(solver, "multistart_local_minima", single_fit)
        report = check_local_min_gap(trials=3, seed=0)
        assert report.details["pairs_checked"] == 0
        assert not report.passed
        assert report.max_discrepancy == verify.NEGATIVE_CONTROL_SENTINEL

    def test_local_min_gap_counts_nonconverged_fits(self, monkeypatch):
        # every multistart yields only a non-converged fit: eq10_gap must
        # count each one it leaves out, and with nothing left to pair it
        # fails with the sentinel
        def nonconverged(x, y, lam, pen, starts=8):
            return [dataclasses.replace(solver.solve(x, y, lam, pen), converged=False)]

        monkeypatch.setattr(solver, "multistart_local_minima", nonconverged)
        report = check_local_min_gap(trials=3, seed=0)
        # 3 trials x 2 lambdas x 2 penalties, one fit each
        assert report.details["nonconverged_excluded"] == 12
        assert report.details["pairs_checked"] == 0
        assert report.max_discrepancy == verify.NEGATIVE_CONTROL_SENTINEL

    def test_theorem3_fails_without_converged_fits(self, monkeypatch):
        # every multistart yields only a non-converged fit, which thm3
        # excludes: no local minimum is left to check, so the identity was
        # never tested and both reports must fail with the sentinel
        def nonconverged(x, y, lam, pen, starts=8):
            return [dataclasses.replace(solver.solve(x, y, lam, pen), converged=False)]

        monkeypatch.setattr(solver, "multistart_local_minima", nonconverged)
        for report in check_theorem3(trials=2, pen=mcp(), tau=0.1, seed=3):
            assert report.details["nonconverged_excluded"] == 2 * 4, report.theorem_id
            assert not report.passed, report.theorem_id
            assert report.max_discrepancy == verify.NEGATIVE_CONTROL_SENTINEL, report.theorem_id

    def test_merge_sums_exclusions(self):
        # the worst component gives the discrepancy, seed, penalty and tau;
        # exclusions of every component are counted
        components = [
            verify._report("thm3_active", 2, disc, 1e-6, seed, penalty=pen, tau=tau, nonconverged_excluded=k)
            for disc, seed, pen, tau, k in [
                (1e-9, 11, "lasso", 0.0, 0), (3e-8, 22, "mcp", 0.1, 1), (2e-8, 33, "scad", 1.0, 4),
            ]
        ]
        merged = verify._merge("thm3_active", components)
        assert (merged.trials, merged.max_discrepancy, merged.worst_case_seed) == (6, 3e-8, 22)
        assert merged.details == {"penalty": "mcp", "tau": 0.1, "nonconverged_excluded": 5, "components": 3}

    def test_default_suite_uniform_trials(self):
        # one count for every check; thm3 gets max(2, trials // 25) per
        # (penalty, tau) component, and the merged reports sum components
        reports = verify.default_suite(1, trials=2)
        assert [(r.theorem_id, r.trials) for r in reports] == [
            ("lemma1", 2), ("thm1", 2), ("thm2", 2), ("thm3_active", 18), ("thm3_inactive", 18),
            ("eq10_gap", 2), ("lemma2", 2), ("thm1_general", 4), ("thm2_general", 4),
        ]

    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
    def test_zero_trials_rejected(self, check):
        # a check without trials tests nothing and must not pass
        with pytest.raises(ValueError, match="trials must be positive, got 0"):
            check(trials=0, seed=0)

    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
    def test_negative_seed_rejected(self, check):
        # default_suite would shift -1 into its positive seed blocks; the
        # checks would reach numpy's "expected non-negative integer"
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            check(trials=1, seed=-1)

    @pytest.mark.parametrize("name", NAN_INJECTIONS)
    def test_nan_gap_raises(self, name, monkeypatch):
        # a NaN gap is a numerical failure; a running max() would drop it
        # and the check would pass at 0
        inject, theorem_id, trials = NAN_INJECTIONS[name]
        inject(monkeypatch)
        with pytest.raises(NumericalError, match=f"^{theorem_id}: "):
            CHECKS[name.split("/")[0]](trials=trials, seed=0)

    def test_nonfinite_detail_raises(self):
        with pytest.raises(NumericalError, match="^thm1: negative_control_max is inf at seed 3$"):
            verify._report("thm1", 5, 0.0, 1e-6, 3, negative_control_max=math.inf)

    def test_reduce_takes_first_maximum(self):
        rows = [(10, 0.5, 1.0), (11, 0.7, 1.0), (12, 0.7, 0.0), (13, 0.1, 1.0)]
        assert verify._reduce(rows) == (0.7, 11)
        assert verify._reduce(rows, 2) == (1.0, 10)

    def test_reduce_takes_first_nan(self):
        rows = [(10, 0.5), (11, math.nan), (12, 2.0), (13, math.nan)]
        disc, worst_seed = verify._reduce(rows)
        assert math.isnan(disc) and worst_seed == 11

    def test_default_suite_seed_blocks(self, monkeypatch):
        # each check gets its own block seed + k * 1_000_003, k = 1, 2, ...
        calls = []

        def recorder(name):
            def check(trials, *args, seed):
                calls.append((name, *(getattr(a, "kind", a) for a in args), seed))
                report = verify._report(name, trials, 0.0, 1.0, seed, nonconverged_excluded=0)
                return (report, report) if name == "thm3" else report

            return check

        for attr, name in [
            ("check_lemma1", "lemma1"), ("check_theorem1", "thm1"), ("check_theorem2", "thm2"),
            ("check_theorem3", "thm3"), ("check_local_min_gap", "eq10_gap"), ("check_lemma2", "lemma2"),
            ("check_generalized_theorem1", "thm1_general"), ("check_generalized_theorem2", "thm2_general"),
        ]:
            monkeypatch.setattr(verify, attr, recorder(name))
        verify.default_suite(5, trials=2)
        thm3 = [("thm3", kind, tau) for kind, tau in itertools.product(("lasso", "scad", "mcp"), (0.0, 0.1, 1.0))]
        order = [
            ("lemma1",), ("thm1",), ("thm2",), *thm3, ("eq10_gap",), ("lemma2",),
            ("thm1_general", "scad"), ("thm1_general", "mcp"), ("thm2_general", "scad"), ("thm2_general", "mcp"),
        ]
        assert calls == [(*call, 5 + k * 1_000_003) for k, call in enumerate(order, start=1)]

    @pytest.mark.parametrize("pen", [scad(), mcp()])
    def test_generalized_small_runs(self, pen):
        r1 = check_generalized_theorem1(trials=10, pen=pen, seed=3)
        r2 = check_generalized_theorem2(trials=10, pen=pen, seed=3)
        assert r1.passed and r2.passed

    def test_checks_are_deterministic(self):
        a = check_lemma1(trials=10, seed=3)
        b = check_lemma1(trials=10, seed=3)
        assert a == b

    def test_sentinel_fires_when_negative_control_passes(self, monkeypatch):
        # feed both control paths orthonormal designs: without the
        # transform the thm1 identity then holds anyway, and nu = 1 makes
        # the unscaled transform of the thm2 control equal the scaled one.
        # The controls fail to break, and each report must fail with the
        # sentinel discrepancy. The main identities keep their own families
        # (mixed_full_rank_problems binds its equicorrelated families when
        # the module is imported) and hold there.
        monkeypatch.setattr(verify, "equicorrelated_problems", lambda rho: orthonormal_problems)
        monkeypatch.setattr(verify, "heteroskedastic_problems", orthonormal_problems)
        for report in (
            check_theorem1(trials=8, seed=2),
            check_theorem2(trials=8, seed=2),
        ):
            assert not report.passed, report.theorem_id
            assert report.max_discrepancy == verify.NEGATIVE_CONTROL_SENTINEL, report.theorem_id
            assert report.details["negative_control_max"] <= 1e-2, report.theorem_id


def tied_problems(seed):
    """Orthonormal columns and sigma = sqrt(n), so Z_j is z_j to rounding:
    Z_1 sits on the check's 11th threshold (its grid is
    geomspace(1e-3, 1.2, 25) times max |Z|), Z_2 in the 0.05 rule's
    [Z95, 1.96] band, and the p-values of Z_0 and Z_3 underflow to 0, as do
    the thresholds of the top two lambdas (1.2 and 0.89 times 50)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((20, 5)))
    z = np.array([50.0, 50.0 * np.geomspace(1e-3, 1.2, 25)[10], 1.95999, 40.0, -0.5])
    return q, q @ z, math.sqrt(20)


class TestTheoremCounts:
    """Nonzero counts and gaps, as the per-coordinate loops that the array
    forms replaced gave them."""

    def test_theorem2_boundary_ties(self, monkeypatch):
        # per trial: one |Z| tie, two underflowed coordinates at each of the
        # top two lambdas, and one 0.05-band tie; none is compared
        monkeypatch.setattr(verify, "inference_scale_problems", tied_problems)
        report = check_theorem2(trials=2, seed=4)
        assert report.passed
        assert report.details["boundary_ties_excluded"] == 2 * (1 + 2 * 2 + 1)
        assert report.details["set_mismatches"] == report.details["rule_005_mismatches"] == 0
        assert report.worst_case_seed == 4

    def test_theorem2_mismatches(self, monkeypatch):
        # the unscaled transform thresholds beta_ols, not sigma Z / sqrt(n):
        # the active sets leave the Z rule, and at 1.96 sigma / sqrt(n) the
        # 0.05 rule; the discrepancy is the mismatch count, and its seed the
        # first seed with one
        monkeypatch.setattr(preconditioners, "puffer_scaled", preconditioners.puffer)
        report = check_theorem2(trials=3, seed=0)
        assert (report.details["set_mismatches"], report.details["rule_005_mismatches"]) == (94, 7)
        assert report.details["boundary_ties_excluded"] == 0
        assert (report.max_discrepancy, report.worst_case_seed) == (101.0, 0)

    def test_theorem2_p_rule_mismatches(self, monkeypatch):
        # p-values of 1 - p: the fits keep the Z rule and leave the p rule
        inference = estimators.inference

        def flipped(x, y, sigma):
            inf = inference(x, y, sigma)
            return dataclasses.replace(inf, p_values=1.0 - inf.p_values)

        monkeypatch.setattr(estimators, "inference", flipped)
        report = check_theorem2(trials=3, seed=0)
        assert (report.details["set_mismatches"], report.details["rule_005_mismatches"]) == (409, 17)
        assert (report.max_discrepancy, report.worst_case_seed) == (426.0, 0)

    def test_theorem3_gaps(self, monkeypatch):
        # a ridge fit 1 below in every coordinate: the active gap misses
        # lam * pen'(beta_j) by about -1, and inactive coordinates exceed lam
        ridge = estimators.ridge
        monkeypatch.setattr(estimators, "ridge", lambda x, y, tau: ridge(x, y, tau) - 1.0)
        active, inactive = check_theorem3(trials=2, pen=mcp(), tau=0.1, seed=3)
        assert (active.worst_case_seed, inactive.worst_case_seed) == (4, 4)
        assert active.max_discrepancy == pytest.approx(1.0000000000164166, rel=1e-9)
        assert inactive.max_discrepancy == pytest.approx(0.9990688599304607, rel=1e-9)
        assert not active.passed and not inactive.passed
        assert active.details["nonconverged_excluded"] == 0

    def test_seed0_excludes_no_fit(self):
        # thm3's nine components and eq10_gap on the seeds and budgets that
        # default_suite(0) gives them: every SCAD and MC+ fit converges
        blocks = itertools.count(4 * 1_000_003, 1_000_003)
        for pen, tau in itertools.product(verify.THM3_PENALTIES, verify.THM3_TAUS):
            for report in check_theorem3(verify.DEFAULT_TRIALS["thm3"], pen, tau, seed=next(blocks)):
                assert report.details["nonconverged_excluded"] == 0, (pen.kind, tau)
        report = check_local_min_gap(verify.DEFAULT_TRIALS["eq10_gap"], seed=next(blocks))
        assert report.details["nonconverged_excluded"] == 0
        assert report.details["pairs_checked"] == 3081


class TestQuantileHelper:
    def test_upper_quantile_against_oracle(self):
        z = verify.Z95
        assert abs(estimators.two_sided_p(z) - 0.05) <= 1e-16
        assert abs(oracles.two_sided_p_oracle(z) - 0.05) <= 1e-12
        assert abs(z - 1.959964) <= 1e-5


class TestIdentityEdgeCases:
    def test_stacked_orthonormal_blocks(self):
        # n = 2p design made of two stacked scaled orthogonal blocks
        from puffer_lasso.penalties import lasso, soft_threshold
        from puffer_lasso.solver import solve

        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        x = np.vstack([q, q]) / np.sqrt(2.0)
        y = rng.standard_normal(10)
        bols = estimators.ols(x, y)
        # lam = 0: both sides are the OLS coefficients
        fit = solve(x, y, 0.0, lasso())
        assert np.max(np.abs(fit.beta - bols)) <= 1e-8
        # mid lambda: thresholding identity
        lam = 0.5 * float(np.max(np.abs(bols)))
        fit = solve(x, y, lam, lasso())
        target = np.array([soft_threshold(float(b), lam) for b in bols])
        assert np.max(np.abs(fit.beta - target)) <= 1e-8
        # lam beyond every coefficient: the dead zone covers everything
        fit = solve(x, y, 2.0 * float(np.max(np.abs(bols))), lasso())
        assert np.array_equal(fit.beta, np.zeros(5))

    def test_elastic_net_thresholding_identity(self):
        # any regular penalty with a scalar thresholding map inherits the
        # preconditioned identity; elastic net included
        from puffer_lasso import estimators
        from puffer_lasso.penalties import elastic_net, univariate_threshold
        from puffer_lasso.preconditioners import puffer
        from puffer_lasso.solver import solve

        pen = elastic_net(0.6)
        x, y, _ = mixed_full_rank_problems(9)
        bols = estimators.ols(x, y)
        pair = puffer(x, y)
        lam = 0.3 * float(np.max(np.abs(bols)))
        fit = solve(pair.x_tilde, pair.y_tilde, lam, pen)
        target = np.array([univariate_threshold(pen, float(b), lam) for b in bols])
        assert np.max(np.abs(fit.beta - target)) <= 1e-6

    def test_ridge_gap_vanishes_as_lambda_goes_to_zero(self):
        from puffer_lasso import estimators
        from puffer_lasso.penalties import lasso
        from puffer_lasso.preconditioners import project_rowspace, puffer_tau
        from puffer_lasso.solver import solve

        x, y, _ = wide_problems(4)
        tau = 0.1
        pair = puffer_tau(x, y, tau)
        fit = solve(pair.x_tilde, pair.y_tilde, 1e-8, lasso())
        gap = estimators.ridge(x, y, tau) - project_rowspace(x, fit.beta, tau)
        assert np.max(np.abs(gap)) <= 1e-6


class TestThresholdGapSharesOneGram:
    """_threshold_gap fits its lambdas with one solver.solve_path, so on one
    X'X store per trial, over the lambdas in descending order, and returns
    the rows in the order it was given them; each row is also the fit of a
    separate solve warm-started from the fit at the next larger lambda."""

    @pytest.mark.parametrize("pen", [lasso(), elastic_net(0.6), scad(), mcp(1.5)], ids=lambda p: p.kind)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fits_equal_separate_solves(self, monkeypatch, pen, seed):
        x, y, _ = mixed_full_rank_problems(seed)
        b = estimators.ols(x, y)
        top = float(np.max(np.abs(b)))
        descending = np.geomspace(1.2 * top, 1e-3 * top, 6)
        order = [[5, 4, 3, 2, 1, 0], [2, 0, 5, 1, 4, 3], [0, 1, 2, 3, 4, 5]][seed - 1]
        builds = []
        real = solver._Gram

        def counted(m, v):
            builds.append(m.shape)
            return real(m, v)

        monkeypatch.setattr(solver, "_Gram", counted)
        _, betas = verify._threshold_gap(x, y, b, pen, descending[order])
        assert builds == [x.shape]
        monkeypatch.setattr(solver, "_Gram", real)
        path = solver.solve_path(x, y, descending, pen)
        warm, chain = None, []
        for lam in descending.tolist():
            warm = solver.solve(x, y, lam, pen, init=warm).beta
            chain.append(warm)
        assert betas.tobytes() == np.array([path[k].beta for k in order]).tobytes()
        assert betas.tobytes() == np.array([chain[k] for k in order]).tobytes()

    def test_a_zero_b_gets_a_positive_negative_control_lambda(self):
        # max |b| = 0 takes the grid's 1e-8 floor, so solve_path, which
        # takes positive lambdas only, fits the control at 2.5e-9
        zeros = lambda x, y, sigma: np.zeros(x.shape[1])
        assert verify._lambda_grid(0.0, None) == (2.5e-9,)
        gap, _ = verify._threshold_check(equicorrelated_problems(0.9), 1, 1, None, zeros, lasso(), None)
        assert gap > 0.0


def private_reaches(source: str) -> list[str]:
    """Every _-prefixed (not dunder) name that ``source`` reads from another
    puffer_lasso module: imported by name, or as an attribute of a module
    that a puffer_lasso import binds."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {(a.asname or a.name).split(".")[0] for a in node.names if a.name.startswith("puffer_lasso")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("puffer_lasso")):
            if node.module in (None, "puffer_lasso"):  # from . import solver
                modules |= {a.asname or a.name for a in node.names}
            found += [f"{node.module}.{a.name}" for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


class TestCertificateBoundary:
    """A certificate's fit side reaches the solver, the transforms and the
    estimators only through their public entry points, so that the two
    sides of an identity stay on independent code paths."""

    def test_verify_reads_no_private_name_of_another_module(self):
        source = Path(verify.__file__).read_text(encoding="utf-8")
        assert private_reaches(source) == []

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("from . import linalg, solver\nsolver._Gram(*linalg.as_design(x, y))", ["solver._Gram"]),
            ("from .solver import _polish, solve", ["solver._polish"]),
            ("import puffer_lasso.solver\npuffer_lasso.solver._descent(g, 1.0, p, None)", ["puffer_lasso.solver._descent"]),
            ("from puffer_lasso import linalg as la\nla._wide_svd(x)", ["la._wide_svd"]),
            ("from . import solver\nsolver.solve_path(x, y, g, p)\nsolver.__name__\nself._cache", []),
        ],
    )
    def test_private_reaches_are_found(self, source, expected):
        assert private_reaches(source) == expected
