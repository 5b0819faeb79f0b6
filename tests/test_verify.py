import dataclasses

import numpy as np
import pytest

from puffer_lasso import estimators, solver, verify
from puffer_lasso.penalties import mcp, scad
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
    clustered_wide_problems,
    equicorrelated_problems,
    heteroskedastic_problems,
    inference_scale_problems,
    mixed_full_rank_problems,
    orthonormal_problems,
    spiked_problems,
    wide_problems,
)

import oracles


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
        report = check_lemma1(orthonormal_problems, trials=20, seed=7)
        assert report.passed
        assert report.trials == 20
        assert report.theorem_id == "lemma1"

    def test_theorem1_small_run_with_control(self):
        report = check_theorem1(mixed_full_rank_problems, trials=20, seed=7)
        assert report.passed
        assert report.details["negative_control_max"] > 1e-2

    def test_theorem2_small_run(self):
        report = check_theorem2(inference_scale_problems, trials=20, seed=7)
        assert report.passed
        assert report.details["set_mismatches"] == 0
        assert report.details["rule_005_mismatches"] == 0
        assert report.details["negative_control_max"] > 1e-2

    @pytest.mark.parametrize("tau", [0.0, 0.1, 1.0])
    def test_theorem3_small_run(self, tau):
        active, inactive = check_theorem3(wide_problems, trials=3, pen=mcp(), tau=tau, seed=3)
        assert active.passed and inactive.passed
        assert active.theorem_id == "thm3_active"
        assert inactive.theorem_id == "thm3_inactive"

    def test_lemma2_small_run(self):
        report = check_lemma2(wide_problems, trials=40, seed=5)
        assert report.passed
        assert report.tolerance == 1e-8

    def test_local_min_gap_finds_pairs(self):
        report = check_local_min_gap(clustered_wide_problems, trials=12, seed=0)
        assert report.passed
        assert report.details["pairs_checked"] >= 1

    def test_local_min_gap_fails_without_pairs(self, monkeypatch):
        # every multistart yields the same single minimum, the all-zero
        # fit, so no pair is left to check: the bound was never tested and
        # the report must fail with the sentinel
        def single_fit(x, y, lam, pen, starts=8):
            return [solver.solve(x, y, 10.0 * solver.lambda_max(x, y), pen)]

        monkeypatch.setattr(solver, "multistart_local_minima", single_fit)
        report = check_local_min_gap(clustered_wide_problems, trials=3, seed=0)
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
        report = check_local_min_gap(clustered_wide_problems, trials=3, seed=0)
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
        for report in check_theorem3(wide_problems, trials=2, pen=mcp(), tau=0.1, seed=3):
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

    @pytest.mark.parametrize(
        "check",
        [
            lambda t: check_lemma1(orthonormal_problems, t),
            lambda t: check_theorem1(mixed_full_rank_problems, t),
            lambda t: check_theorem2(inference_scale_problems, t),
            lambda t: check_theorem3(wide_problems, t, mcp(), 0.1),
            lambda t: check_lemma2(wide_problems, t),
            lambda t: check_local_min_gap(clustered_wide_problems, t),
            lambda t: check_generalized_theorem1(mixed_full_rank_problems, t, scad()),
            lambda t: check_generalized_theorem2(inference_scale_problems, t, scad()),
            lambda t: verify.default_suite(0, trials=t),
        ],
        ids=[
            "lemma1", "thm1", "thm2", "thm3", "lemma2", "eq10_gap", "thm1_general", "thm2_general",
            "default_suite",
        ],
    )
    def test_zero_trials_rejected(self, check):
        # a check without trials tests nothing and must not pass
        with pytest.raises(ValueError, match="trials must be positive, got 0"):
            check(0)

    @pytest.mark.parametrize("pen", [scad(), mcp()])
    def test_generalized_small_runs(self, pen):
        r1 = check_generalized_theorem1(mixed_full_rank_problems, trials=10, pen=pen, seed=3)
        r2 = check_generalized_theorem2(inference_scale_problems, trials=10, pen=pen, seed=3)
        assert r1.passed and r2.passed

    def test_checks_are_deterministic(self):
        a = check_lemma1(orthonormal_problems, trials=10, seed=3)
        b = check_lemma1(orthonormal_problems, trials=10, seed=3)
        assert a == b

    def test_sentinel_fires_when_negative_control_passes(self, monkeypatch):
        # feed both control paths orthonormal designs: without the
        # transform the thm1 identity then holds anyway, and nu = 1 makes
        # the unscaled transform of the thm2 control equal the scaled one.
        # The controls fail to break, and each report must fail with the
        # sentinel discrepancy. inference_scale_problems keeps its families,
        # which are bound when the module is imported.
        monkeypatch.setattr(verify, "equicorrelated_problems", lambda rho: orthonormal_problems)
        monkeypatch.setattr(verify, "heteroskedastic_problems", orthonormal_problems)
        for report in (
            check_theorem1(orthonormal_problems, trials=8, seed=2),
            check_theorem2(inference_scale_problems, trials=8, seed=2),
        ):
            assert not report.passed, report.theorem_id
            assert report.max_discrepancy == verify.NEGATIVE_CONTROL_SENTINEL, report.theorem_id
            assert report.details["negative_control_max"] <= 1e-2, report.theorem_id


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
