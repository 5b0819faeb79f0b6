import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import estimators, preconditioners
from puffer_lasso.errors import DataError, NumericalError, RankError
from puffer_lasso.penalties import lasso, soft_threshold
from puffer_lasso.preconditioners import (
    project_rowspace,
    puffer,
    puffer_scaled,
    puffer_tau,
    ridge_via_precond,
    scaling_matrix,
)
from puffer_lasso.solver import solve

import oracles


def tall_problem(seed, n=8, p=3, noise=0.4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.uniform(-2, 2, p) + noise * rng.standard_normal(n)
    return x, y


def wide_problem(seed, n=3, p=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, p)), rng.standard_normal(n)


class TestPuffer:
    def test_orthonormal_design_unchanged(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 3)))
        y = np.random.default_rng(1).standard_normal(7)
        pair = puffer(q, y)
        assert np.max(np.abs(pair.x_tilde - q)) <= 1e-12
        assert np.max(np.abs(pair.y_tilde - q @ (q.T @ y))) <= 1e-12

    def test_diagonal_design_unit_columns(self):
        x = np.zeros((4, 2))
        x[0, 0] = 2.0
        x[1, 1] = 3.0
        pair = puffer(x, np.ones(4))
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[1, 1] = 1.0
        assert np.max(np.abs(pair.x_tilde - expected)) <= 1e-12

    def test_columns_orthonormal_6x3(self):
        x, y = tall_problem(3, 6, 3)
        pair = puffer(x, y)
        assert np.max(np.abs(pair.x_tilde.T @ pair.x_tilde - np.eye(3))) <= 1e-10

    def test_matches_materialized_transform(self):
        x, y = tall_problem(5)
        u, d, vt = np.linalg.svd(x, full_matrices=False)
        f = u @ np.diag(1.0 / d) @ u.T  # the n x n matrix, built explicitly
        pair = puffer(x, y)
        assert np.max(np.abs(pair.x_tilde - f @ x)) <= 1e-10
        assert np.max(np.abs(pair.y_tilde - f @ y)) <= 1e-10

    def test_rank_error_names_singular_value(self):
        x = np.ones((6, 2))
        with pytest.raises(RankError, match="singular value"):
            puffer(x, np.ones(6))

    def test_requires_tall(self):
        x, y = wide_problem(1)
        with pytest.raises(RankError):
            puffer(x, y)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_theorem1_proof_identity(self, seed):
        # OLS on the preconditioned pair equals OLS on the original data
        x, y = tall_problem(seed)
        pair = puffer(x, y)
        bols = estimators.ols(x, y)
        assert np.max(np.abs(pair.x_tilde.T @ pair.y_tilde - bols)) <= 1e-8


class TestScalingMatrix:
    def test_identity_gram(self):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((9, 4)))
        assert np.max(np.abs(scaling_matrix(q) - np.ones(4))) <= 1e-12

    def test_diagonal_gram(self):
        x = np.zeros((5, 2))
        x[0, 0] = 2.0
        x[1, 1] = 4.0
        assert np.allclose(scaling_matrix(x), [0.5, 0.25])

    def test_matches_elimination_oracle(self):
        x, _ = tall_problem(11, 8, 3)
        inv = oracles.gauss_jordan_inverse(x.T @ x)
        assert np.max(np.abs(scaling_matrix(x) - np.sqrt(np.diag(inv)))) <= 1e-10


class TestPufferScaled:
    def test_identity_gram_reduces_to_puffer(self):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((9, 4)))
        y = np.random.default_rng(5).standard_normal(9)
        plain = puffer(q, y)
        scaled = puffer_scaled(q, y)
        assert np.max(np.abs(plain.x_tilde - scaled.x_tilde)) <= 1e-10
        assert np.max(np.abs(plain.y_tilde - scaled.y_tilde)) <= 1e-10
        assert np.allclose(scaled.n_diag, np.ones(4))

    def test_sign_preservation(self):
        x, _ = tall_problem(6)
        n_diag = scaling_matrix(x)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(x.shape[1])
        assert np.array_equal(np.sign(b / n_diag), np.sign(b))

    def test_lasso_on_output_matches_scaled_threshold(self):
        x, y = tall_problem(8, 8, 3)
        pair = puffer_scaled(x, y)
        scaled_ols = estimators.ols(x, y) / pair.n_diag
        lam = 0.3 * float(np.max(np.abs(scaled_ols)))
        fit = solve(pair.x_tilde, pair.y_tilde, lam, lasso())
        target = np.array([soft_threshold(float(t), lam) for t in scaled_ols])
        assert np.max(np.abs(fit.beta - target)) <= 1e-8

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_output_columns_orthonormal(self, seed):
        x, y = tall_problem(seed)
        pair = puffer_scaled(x, y)
        p = x.shape[1]
        assert np.max(np.abs(pair.x_tilde.T @ pair.x_tilde - np.eye(p))) <= 1e-8

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_theorem2_proof_identity(self, seed):
        # OLS after right-scaling equals N^-1 beta_ols equals sigma Z / sqrt(n)
        x, y = tall_problem(seed)
        sigma = 0.9
        n_diag = scaling_matrix(x)
        scaled_design_ols = estimators.ols(x * n_diag, y)
        bols = estimators.ols(x, y)
        assert np.max(np.abs(scaled_design_ols - bols / n_diag)) <= 1e-8
        z = estimators.z_stats(x, y, sigma)
        assert np.max(np.abs(scaled_design_ols - sigma * z / math.sqrt(x.shape[0]))) <= 1e-8


class TestPufferTau:
    def test_tau_zero_orthonormal_rows(self):
        x, y = wide_problem(9)
        pair = puffer_tau(x, y, 0.0)
        assert np.max(np.abs(pair.x_tilde @ pair.x_tilde.T - np.eye(3))) <= 1e-8

    def test_huge_tau_shrinks_design(self):
        x, y = wide_problem(10)
        pair = puffer_tau(x, y, 1e12)
        assert np.linalg.norm(pair.x_tilde) <= 1e-5 * np.linalg.norm(x)

    def test_frobenius_identity_seed_fixed(self):
        x, y = wide_problem(12)
        tau = 0.5
        pair = puffer_tau(x, y, tau)
        d = np.linalg.svd(x, compute_uv=False)
        expected = float(np.sum(d**2 / (d**2 + tau)))
        assert abs(np.linalg.norm(pair.x_tilde) ** 2 - expected) <= 1e-10

    def test_gram_in_u_basis(self):
        x, y = wide_problem(13)
        tau = 0.7
        pair = puffer_tau(x, y, tau)
        u, d, _ = np.linalg.svd(x, full_matrices=False)
        expected = u @ np.diag(d**2 / (d**2 + tau)) @ u.T
        assert np.max(np.abs(pair.x_tilde @ pair.x_tilde.T - expected)) <= 1e-10

    def test_requires_wide(self):
        x, y = tall_problem(1)
        with pytest.raises(DataError):
            puffer_tau(x, y, 0.5)

    def test_tau_zero_requires_full_row_rank(self):
        x = np.vstack([np.ones(5), np.ones(5)])
        with pytest.raises(RankError):
            puffer_tau(x, np.ones(2), 0.0)
        # with tau > 0 the transform is defined despite the deficiency
        pair = puffer_tau(x, np.ones(2), 0.5)
        assert np.all(np.isfinite(pair.x_tilde))

    def test_negative_tau_rejected(self):
        x, y = wide_problem(2)
        with pytest.raises(ValueError):
            puffer_tau(x, y, -1.0)


class TestProjectRowspace:
    def test_fixes_rowspace_vectors(self):
        x, _ = wide_problem(14)
        v = x.T @ np.array([0.3, -1.2, 0.5])  # already in the row space
        out = project_rowspace(x, v, 0.0)
        assert np.max(np.abs(out - v)) <= 1e-8

    def test_kills_orthogonal_complement(self):
        x, _ = wide_problem(15)
        rng = np.random.default_rng(16)
        raw = rng.standard_normal(7)
        q, _ = np.linalg.qr(x.T)
        v = raw - q @ (q.T @ raw)
        out = project_rowspace(x, v, 0.0)
        assert np.max(np.abs(out)) <= 1e-8

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    def test_matches_factored_form(self, seed, tau):
        # the dual route through the transform factors (both claims of the
        # factorization identity are exercised here and in test_ridge below)
        x, y = wide_problem(seed)
        rng = np.random.default_rng(seed + 1)
        v = rng.standard_normal(7)
        pair = puffer_tau(x, y, tau)
        direct = project_rowspace(x, v, tau)
        factored = pair.x_tilde.T @ (pair.x_tilde @ v)
        assert np.max(np.abs(direct - factored)) <= 1e-9

    def test_idempotent_at_tau_zero(self):
        x, _ = wide_problem(17)
        v = np.random.default_rng(18).standard_normal(7)
        once = project_rowspace(x, v, 0.0)
        twice = project_rowspace(x, once, 0.0)
        assert np.max(np.abs(twice - once)) <= 1e-8

    def test_rank_error_at_tau_zero(self):
        x = np.vstack([np.ones(5), np.ones(5)])
        with pytest.raises(RankError):
            project_rowspace(x, np.ones(5), 0.0)

    @pytest.mark.parametrize("v", [np.ones(5), np.full(3, np.nan)], ids=["wrong_length", "nonfinite"])
    def test_shape_checked_before_vector(self, v):
        with pytest.raises(DataError, match=r"^project_rowspace requires p >= n, got n=4, p=3$"):
            project_rowspace(np.ones((4, 3)), v, 0.0)


class TestRidgeViaPrecond:
    def test_square_invertible_interpolates(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        y = rng.standard_normal(4)
        beta = ridge_via_precond(x, y, 0.0)
        expected = oracles.gauss_jordan_solve(x, y)
        assert np.max(np.abs(beta - expected)) <= 1e-8

    def test_seed_fixed_3x7_matches_ridge(self):
        x, y = wide_problem(20)
        assert np.max(np.abs(ridge_via_precond(x, y, 1.0) - estimators.ridge(x, y, 1.0))) <= 1e-9

    def test_zero_response(self):
        x, _ = wide_problem(21)
        assert np.array_equal(ridge_via_precond(x, np.zeros(3), 0.5), np.zeros(7))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    def test_matches_ridge_for_random_tau(self, seed, tau):
        x, y = wide_problem(seed)
        a = ridge_via_precond(x, y, tau)
        b = estimators.ridge(x, y, tau)
        assert np.max(np.abs(a - b)) <= 1e-8


class TestOutOfRangeScale:
    # a 6x12 design scaled by 1e160 squares past float64, and one scaled by
    # 1e-165 squares to 0; each used to come back as NaN, inf or zeros with
    # a numpy warning (which the test configuration makes an error)
    def raises(self, name):
        return pytest.raises(NumericalError, match=rf"^{re.escape(name)} overflows float64; rescale the data$")

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_project_rowspace(self, tau):
        x, _ = wide_problem(30, 6, 12)
        with self.raises("XX'"):
            project_rowspace(x * 1e160, np.ones(12), tau)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_puffer_tau_and_ridge_via_precond_overflow(self, tau):
        x, y = wide_problem(31, 6, 12)
        for call in (puffer_tau, ridge_via_precond):
            with self.raises("XX' + tau I"):
                call(x * 1e160, y, tau)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_project_rowspace_underflow(self, tau):
        # XX' underflows to 0: numpy's own LinAlgError at tau = 0, and a
        # zero projection at tau = 1
        x, _ = wide_problem(34, 6, 12)
        with pytest.raises(NumericalError, match=r"^XX' underflows float64; rescale the data$"):
            project_rowspace(x * 1e-165, np.ones(12), tau)

    def test_puffer_tau_inverse_root_at_tau_zero(self):
        x, y = wide_problem(32, 6, 12)
        for call in (puffer_tau, ridge_via_precond):
            with self.raises("(XX' + tau I)^-1/2"):
                call(x * 1e-165, y, 0.0)

    def test_ordinary_scale_is_bit_unchanged(self):
        x, y = wide_problem(33, 6, 12)
        x = x * 1e150
        u, d, vt = np.linalg.svd(x, full_matrices=False)
        w = 1.0 / np.sqrt(np.square(d) + 0.5)
        assert puffer_tau(x, y, 0.5).x_tilde.tobytes() == ((u * (w * d)) @ vt).tobytes()
        v = np.ones(12)
        expected = x.T @ np.linalg.solve(x @ x.T + 0.5 * np.eye(6), x @ v)
        assert project_rowspace(x, v, 0.5).tobytes() == expected.tobytes()
