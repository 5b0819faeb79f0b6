import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import estimators, linalg, penalties, preconditioners
from puffer_lasso.cli import main
from puffer_lasso.errors import DataError, DegreesOfFreedomError, NumericalError, RankError
from puffer_lasso.estimators import (
    inference,
    ols,
    p_values,
    ridge,
    sigma_hat,
    z_stats,
)
from puffer_lasso.preconditioners import puffer_scaled
from puffer_lasso.verify import heteroskedastic_problems, spiked_problems

import oracles


def problem(seed, n, p, noise=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = rng.uniform(-2, 2, p)
    return x, x @ beta + noise * rng.standard_normal(n)


class TestOls:
    def test_square_identity_design_is_blocked(self):
        # n == p violates the n > p contract even for the identity design
        with pytest.raises(RankError):
            ols(np.eye(3), np.array([1.0, 2.0, 3.0]))

    def test_orthonormal_design(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 3)))
        y = np.random.default_rng(2).standard_normal(8)
        assert np.max(np.abs(ols(q, y) - q.T @ y)) <= 1e-12

    def test_seed_fixed_8x3_matches_elimination(self):
        x, y = problem(7, 8, 3)
        expected = oracles.gauss_jordan_solve(x.T @ x, x.T @ y)
        assert np.max(np.abs(ols(x, y) - expected)) <= 1e-10

    def test_rank_deficient(self):
        x = np.ones((6, 2))
        with pytest.raises(RankError):
            ols(x, np.ones(6))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_residual_orthogonality(self, seed):
        x, y = problem(seed, 12, 4)
        beta = ols(x, y)
        gradient = x.T @ (y - x @ beta)
        assert np.max(np.abs(gradient)) <= 1e-8 * max(np.max(np.abs(x.T @ y)), 1.0)


class TestRidge:
    def test_huge_tau_shrinks_to_zero(self):
        x, y = problem(3, 10, 4)
        beta = ridge(x, y, 1e12)
        assert np.linalg.norm(beta) <= 1e-6 * np.linalg.norm(x.T @ y)

    def test_orthonormal_columns_halves(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((9, 4)))
        y = np.random.default_rng(6).standard_normal(9)
        assert np.max(np.abs(ridge(q, y, 1.0) - q.T @ y / 2.0)) <= 1e-12

    def test_wide_seed_fixed_matches_elimination(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 7))
        y = rng.standard_normal(3)
        tau = 0.5
        expected = oracles.gauss_jordan_solve(x.T @ x + tau * np.eye(7), x.T @ y)
        assert np.max(np.abs(ridge(x, y, tau) - expected)) <= 1e-9

    def test_tau_zero_interpolates_wide(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 8))
        y = rng.standard_normal(3)
        beta = ridge(x, y, 0.0)
        assert np.max(np.abs(x @ beta - y)) <= 1e-8
        # minimum-norm solution lives in the row space of X
        q, _ = np.linalg.qr(x.T)
        assert np.max(np.abs(beta - q @ (q.T @ beta))) <= 1e-10

    def test_tau_zero_equals_ols_tall(self):
        x, y = problem(23, 10, 3)
        assert np.max(np.abs(ridge(x, y, 0.0) - ols(x, y))) <= 1e-8

    def test_negative_tau_rejected(self):
        x, y = problem(1, 6, 2)
        with pytest.raises(ValueError):
            ridge(x, y, -0.5)

    def test_overflowing_design_raises(self):
        # X'X of this 6x12 design leaves float64; the solve used to return
        # NaN with a numpy warning (which the test configuration makes an error)
        x, y = problem(29, 6, 12)
        with pytest.raises(NumericalError, match=r"^X'X overflows float64; rescale the data$"):
            ridge(x * 1e160, y, 1.0)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.floats(1e-6, 100.0))
    def test_stationarity_identity(self, seed, tau):
        x, y = problem(seed, 6, 9)
        beta = ridge(x, y, tau)
        lhs = (x.T @ x + tau * np.eye(9)) @ beta
        rhs = x.T @ y
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(np.max(np.abs(rhs)), 1.0)


class TestZStats:
    def test_diagonal_gram_hand_formula(self):
        # rows e1, e2, e1, e2: Gram = diag(2, 2), nu = (1/2, 1/2)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 3.0, 2.0, 5.0])
        sigma = 0.7
        beta_hand = np.array([(1.0 + 2.0) / 2.0, (3.0 + 5.0) / 2.0])
        z_hand = math.sqrt(4) * beta_hand / (sigma * math.sqrt(0.5))
        assert np.max(np.abs(z_stats(x, y, sigma) - z_hand)) <= 1e-12

    def test_zero_coefficient_gives_zero_z(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        # zero response: coefficients are exactly zero, so Z is exactly zero
        z = z_stats(x, np.zeros(4), 1.0)
        assert z[0] == 0.0 and z[1] == 0.0
        # a cancelling response leaves the first coefficient zero to rounding
        z = z_stats(x, np.array([1.0, 0.0, -1.0, 0.0]), 1.0)
        assert abs(z[0]) <= 1e-12

    def test_doubling_sigma_halves_z(self):
        x, y = problem(31, 10, 3)
        z1 = z_stats(x, y, 1.0)
        z2 = z_stats(x, y, 2.0)
        assert np.allclose(z1, 2.0 * z2)

    def test_sigma_must_be_positive(self):
        x, y = problem(1, 8, 2)
        with pytest.raises(ValueError):
            z_stats(x, y, 0.0)


class TestPValues:
    def test_zero_z(self):
        assert p_values([0.0])[0] == 1.0

    def test_conventional_quantile(self):
        # oracle agreement plus the classical two-sided 5% point
        assert abs(p_values([1.959964])[0] - 0.05) <= 1e-6
        assert abs(p_values([1.959964])[0] - oracles.two_sided_p_oracle(1.959964)) <= 1e-12

    def test_symmetry(self):
        p = p_values([2.3, -2.3])
        assert p[0] == p[1]

    def test_tail_accuracy_against_continued_fraction(self):
        for z in [6.0, 9.0, 13.0, 21.0, 30.0]:
            mine = p_values([z])[0]
            ref = oracles.two_sided_p_oracle(z)
            assert mine == pytest.approx(ref, rel=1e-8)

    @given(st.lists(st.integers(0, 3_000_000), min_size=2, max_size=10, unique=True))
    def test_strictly_decreasing_in_magnitude(self, grid):
        # spacing of at least 1e-5 keeps adjacent values distinguishable in
        # double precision over the whole [0, 30] range
        zs = sorted(g * 1e-5 for g in grid)
        p = p_values(zs)
        assert all(p[i] > p[i + 1] for i in range(len(p) - 1))


class TestSigmaHat:
    def test_exact_span_gives_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        assert sigma_hat(x, y) == 0.0

    def test_constructed_residual(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 3))
        q, _ = np.linalg.qr(x)
        raw = rng.standard_normal(10)
        e = raw - q @ (q.T @ raw)  # orthogonal to the column span
        y = x @ np.array([0.5, 1.0, -1.5]) + e
        expected = math.sqrt(float(e @ e) / (10 - 3))
        assert abs(sigma_hat(x, y) - expected) <= 1e-10

    def test_homogeneous_in_scale(self):
        x, y = problem(41, 12, 4)
        assert sigma_hat(x, 3.0 * y) == pytest.approx(3.0 * sigma_hat(x, y), rel=1e-12)

    def test_insufficient_degrees_of_freedom(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        with pytest.raises(DegreesOfFreedomError):
            sigma_hat(x, rng.standard_normal(4))


class TestInference:
    def test_user_supplied_sigma_recorded(self):
        x, y = problem(51, 12, 3)
        result = inference(x, y, 0.8)
        assert result.sigma == 0.8
        assert result.sigma_source == "user_supplied"

    def test_residual_estimate_recorded(self):
        x, y = problem(52, 12, 3)
        result = inference(x, y)
        assert result.sigma == pytest.approx(sigma_hat(x, y))
        assert result.sigma_source == "residual_estimate"

    def test_pvalue_zstat_consistency(self):
        x, y = problem(53, 14, 4)
        result = inference(x, y, 1.0)
        recomputed = p_values(result.z_stats)
        assert np.array_equal(result.p_values, recomputed)

    def test_response_in_span_without_sigma_is_a_data_error(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 3.0]])
        with pytest.raises(DataError, match="^degenerate fit: .* supply --sigma$"):
            inference(x, x @ np.array([2.0, -1.0]))

    @pytest.mark.parametrize("sigma", [None, 0.7])
    def test_bit_equal_to_separately_factored_reference(self, sigma):
        designs = [problem(60 + s, 8 + 5 * s, 2 + s) for s in range(3)]
        for gen in (heteroskedastic_problems, spiked_problems):
            designs += [gen(s)[:2] for s in range(4)]
        for x, y in designs:
            result = inference(x, y, sigma)
            beta, z, p, sigma_ref = oracles.inference_reference(x, y, sigma)
            assert result.beta_ols.tobytes() == beta.tobytes()
            assert result.z_stats.tobytes() == z.tobytes()
            assert result.p_values.tobytes() == p.tobytes()
            assert np.float64(result.sigma).tobytes() == np.float64(sigma_ref).tobytes()


class TestOneSvdPerDesign:
    """Every factorization goes through linalg.svd; each estimator makes one
    and puffer_scaled two (X, then the p x p D V'N)."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        shapes = []
        real = linalg.svd

        def counted(x, *rest):
            shapes.append(np.shape(x))
            return real(x, *rest)

        monkeypatch.setattr(linalg, "svd", counted)
        return shapes

    CALLS = {
        "ols": (ols, 1),
        "sigma_hat": (sigma_hat, 1),
        "z_stats": (lambda x, y: z_stats(x, y, 0.5), 1),
        "inference_sigma": (lambda x, y: inference(x, y, 0.5), 1),
        "inference_estimated": (inference, 1),
        "puffer_scaled": (puffer_scaled, 2),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_library(self, svd_calls, name):
        call, expected = self.CALLS[name]
        call(*problem(70, 15, 4))
        assert len(svd_calls) == expected

    @pytest.mark.parametrize("extra", [[], ["--sigma", "0.5"]])
    def test_cli_inspect(self, svd_calls, tmp_path, extra):
        x, y = problem(71, 15, 4)
        path = tmp_path / "data.csv"
        rows = [",".join(repr(float(v)) for v in row) for row in np.column_stack([y, x])]
        path.write_text("\n".join(["y,a,b,c,d", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["inspect", "--input", str(path), "--response", "y", "--output", str(out), *extra]) == 0
        assert svd_calls == [(15, 4)]


WIDE = np.random.default_rng(3).standard_normal((4, 7))
TALL = np.random.default_rng(4).standard_normal((9, 3))
# each library call that takes a scalar parameter, as f(value), and the
# name its error gives the parameter
PARAMETER_CALLS = {
    "mcp": (penalties.mcp, "mcp shape gamma"),
    "scad": (penalties.scad, "scad shape a"),
    "puffer_tau": (lambda v: preconditioners.puffer_tau(WIDE, np.ones(4), v), "tau"),
    "project_rowspace": (lambda v: preconditioners.project_rowspace(WIDE, np.ones(7), v), "tau"),
    "ridge": (lambda v: estimators.ridge(WIDE, np.ones(4), v), "tau"),
    "inference": (lambda v: estimators.inference(TALL, np.ones(9), v), "sigma"),
    "z_stats": (lambda v: estimators.z_stats(TALL, np.ones(9), v), "sigma"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", PARAMETER_CALLS)
def test_nonfinite_parameter_rejected(call, value):
    # a non-finite parameter used to give NaN, zeros or a wrong threshold
    fn, name = PARAMETER_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        fn(value)
