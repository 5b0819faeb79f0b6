import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import estimators, linalg, preconditioners, verify
from puffer_lasso.errors import DataError, NumericalError, RankError
from puffer_lasso.penalties import lasso, univariate_threshold
from puffer_lasso.preconditioners import (
    project_rowspace,
    puffer,
    puffer_scaled,
    puffer_tau,
    rowspace_projector,
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


def scaling_diagonal(x) -> np.ndarray:
    """The diagonal of puffer_scaled's N, N_jj = sqrt of [(X'X)^-1]_jj."""
    return puffer_scaled(x, np.ones(x.shape[0])).n_diag


class TestScalingMatrix:
    def test_identity_gram(self):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((9, 4)))
        assert np.max(np.abs(scaling_diagonal(q) - np.ones(4))) <= 1e-12

    def test_diagonal_gram(self):
        x = np.zeros((5, 2))
        x[0, 0] = 2.0
        x[1, 1] = 4.0
        assert np.allclose(scaling_diagonal(x), [0.5, 0.25])

    def test_matches_elimination_oracle(self):
        x, _ = tall_problem(11, 8, 3)
        inv = oracles.gauss_jordan_inverse(x.T @ x)
        assert np.max(np.abs(scaling_diagonal(x) - np.sqrt(np.diag(inv)))) <= 1e-10


class TestPufferScaled:
    def test_identity_gram_reduces_to_puffer(self):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((9, 4)))
        y = np.random.default_rng(5).standard_normal(9)
        plain = puffer(q, y)
        scaled = puffer_scaled(q, y)
        assert np.max(np.abs(plain.x_tilde - scaled.x_tilde)) <= 1e-10
        assert np.max(np.abs(plain.y_tilde - scaled.y_tilde)) <= 1e-10
        assert np.allclose(scaled.n_diag, np.ones(4))

    def test_checks_x_then_shape_then_rank_then_y(self):
        x, _ = wide_problem(1)
        bad_y = np.full(3, np.nan)
        with pytest.raises(DataError, match=r"^matrix contains NaN or Inf entries$"):
            puffer_scaled(np.full((3, 7), np.nan), bad_y)
        with pytest.raises(RankError, match=r"^puffer_scaled requires n > p, got n=3, p=7$"):
            puffer_scaled(x, bad_y)
        with pytest.raises(RankError, match="singular value"):
            puffer_scaled(np.ones((6, 2)), np.full(6, np.nan))
        with pytest.raises(DataError, match=r"^vector contains NaN or Inf entries$"):
            puffer_scaled(tall_problem(6)[0], np.full(8, np.nan))

    def test_sign_preservation(self):
        x, _ = tall_problem(6)
        n_diag = scaling_diagonal(x)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(x.shape[1])
        assert np.array_equal(np.sign(b / n_diag), np.sign(b))

    def test_lasso_on_output_matches_scaled_threshold(self):
        x, y = tall_problem(8, 8, 3)
        pair = puffer_scaled(x, y)
        scaled_ols = estimators.ols(x, y) / pair.n_diag
        lam = 0.3 * float(np.max(np.abs(scaled_ols)))
        fit = solve(pair.x_tilde, pair.y_tilde, lam, lasso())
        target = np.array([univariate_threshold(lasso(), float(t), lam) for t in scaled_ols])
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
        n_diag = scaling_diagonal(x)
        scaled_design_ols = estimators.ols(x * n_diag, y)
        bols = estimators.ols(x, y)
        assert np.max(np.abs(scaled_design_ols - bols / n_diag)) <= 1e-8
        z = estimators.z_stats(x, y, sigma)
        assert np.max(np.abs(scaled_design_ols - sigma * z / math.sqrt(x.shape[0]))) <= 1e-8


# verify's full-rank designs; spiked_problems reaches a condition number of 1e4
FULL_RANK_FAMILIES = {
    "orthonormal": verify.orthonormal_problems,
    "equicorrelated_0": verify.equicorrelated_problems(0.0),
    "equicorrelated_0.5": verify.equicorrelated_problems(0.5),
    "equicorrelated_0.9": verify.equicorrelated_problems(0.9),
    "heteroskedastic": verify.heteroskedastic_problems,
    "spiked": verify.spiked_problems,
    "inference_scale": verify.inference_scale_problems,
}


def count_factorizations(monkeypatch) -> list:
    """The (name, shape) of every np.linalg.svd and qr call from now on."""
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)

        return call

    for name in ("svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


class TestOneFactorization:
    """puffer_scaled factors X once and rotates its factors by one p x p
    SVD; the two-SVD route it replaced is oracles.puffer_scaled_reference."""

    def test_one_n_by_p_svd(self, monkeypatch):
        # below two row blocks X takes one n x p np.linalg.svd; above, one
        # QR per block, one of the stacked R factors and no n x p SVD
        calls = count_factorizations(monkeypatch)
        x, y = tall_problem(21, 70, 15)
        puffer_scaled(x, y)
        assert calls == [("svd", (70, 15)), ("svd", (15, 15))]
        calls.clear()
        monkeypatch.setattr(linalg, "_block_rows", lambda p: 20)
        puffer_scaled(x, y)
        blocks = [("qr", (23, 15)), ("qr", (23, 15)), ("qr", (24, 15)), ("qr", (45, 15))]
        assert calls == [*blocks, ("svd", (15, 15)), ("svd", (15, 15))]

    @pytest.mark.parametrize("family", FULL_RANK_FAMILIES)
    def test_matches_two_svd_route(self, family):
        for seed in range(20):
            x, y, *_ = FULL_RANK_FAMILIES[family](seed)
            pair = puffer_scaled(x, y)
            x_ref, y_ref, n_ref = oracles.puffer_scaled_reference(x, y)
            assert pair.n_diag.tobytes() == n_ref.tobytes() == np.sqrt(linalg.gram_inverse_diagonal(x)).tobytes()
            for got, ref in ((pair.x_tilde, x_ref), (pair.y_tilde, y_ref)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    def test_memory_bound(self):
        # one row block: U, and the product X~ written over it, against the
        # two-SVD route's X N, U of X N and the result
        x, y = tall_problem(22, 4000, 50)
        tracemalloc.start()
        try:
            puffer_scaled(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    def test_rank_of_scaled_design_at_n_by_p_tolerance(self, monkeypatch):
        # X N's rank is tested at the tolerance an SVD of the n x p X N
        # takes, max(n, p) eps s_1, not the p x p factor's p eps s_1
        x, y = tall_problem(23, 600, 3)
        real = linalg.svd

        def squeezed(m):
            f = real(m)
            if m.shape == (3, 3):  # D V'N: put its last singular value between the two
                f = dataclasses.replace(f, d=f.d * np.array([1.0, 1.0, 300 * linalg.EPS]))
            return f

        monkeypatch.setattr(linalg, "svd", squeezed)
        with pytest.raises(RankError, match=r"^matrix is column-rank deficient: rank 2 < 3 columns "):
            puffer_scaled(x, y)


def gap(got, want) -> float:
    """max |got - want| relative to max(1, max |want|)."""
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


class TestBlockedFactorization:
    """linalg.svd factors a tall design of two or more row blocks by QR per
    block; B, the rows per block, is patched down so that small designs run
    through many blocks. The one-call route is oracles.one_svd_reference."""

    CALLS = {
        "ols": estimators.ols,
        "sigma_hat": estimators.sigma_hat,
        "z_stats": lambda x, y: estimators.z_stats(x, y, 0.5),
        "inference": estimators.inference,
        "gram_inverse_diagonal": lambda x, y: linalg.gram_inverse_diagonal(x),
        "puffer": puffer,
        "puffer_scaled": puffer_scaled,
    }

    @staticmethod
    def blocks_of(monkeypatch, rows):
        monkeypatch.setattr(linalg, "_block_rows", lambda p: rows)

    @pytest.mark.parametrize("rows", [3, 7, 16])
    @pytest.mark.parametrize("family", FULL_RANK_FAMILIES)
    def test_factors(self, monkeypatch, family, rows):
        self.blocks_of(monkeypatch, rows)
        for seed in range(20):
            x, *_ = FULL_RANK_FAMILIES[family](seed)
            f = linalg.svd(x)
            d = np.linalg.svd(x, compute_uv=False)
            p = x.shape[1]
            assert np.max(np.abs(f.d - d)) <= 1e-13 * d[0]
            assert np.max(np.abs(f.u.T @ f.u - np.eye(p))) <= 1e-13
            assert np.max(np.abs((f.u * f.d) @ f.v.T - x)) <= 1e-13 * np.max(np.abs(x))
            assert f.rank_tol == max(x.shape) * linalg.EPS * f.d[0]

    @pytest.mark.parametrize("rows", [3, 7, 16])
    @pytest.mark.parametrize("family", FULL_RANK_FAMILIES)
    def test_matches_one_svd_route(self, monkeypatch, family, rows):
        self.blocks_of(monkeypatch, rows)
        sigma = 0.5
        for seed in range(20):
            x, y, *_ = FULL_RANK_FAMILIES[family](seed)
            ref = oracles.one_svd_reference(x, y, sigma)
            plain, scaled = puffer(x, y), puffer_scaled(x, y)
            result = estimators.inference(x, y, sigma)
            for got, want in [
                (plain.x_tilde, ref["puffer"][0]),
                (scaled.x_tilde, ref["puffer_scaled"][0]),
                (scaled.y_tilde, ref["puffer_scaled"][1]),
                (scaled.n_diag, ref["puffer_scaled"][2]),
            ]:
                assert gap(got, want) <= 1e-12
            # beta_ols carries the least-squares error of order kappa^2 eps
            # and passes it to z and to Puffer's Y~ = X~ beta_ols. Where
            # the two routes differ by more than 1e-12 (two spiked designs
            # near kappa = 5e3), the blocked one must be within 1e-12, or
            # twice the one-call route's distance, of the exact solution.
            exact = None
            for name, got, want in [
                ("beta_ols", result.beta_ols, ref["beta_ols"]),
                ("z_stats", result.z_stats, ref["z_stats"]),
                ("y_tilde", plain.y_tilde, ref["puffer"][1]),
            ]:
                if gap(got, want) > 1e-12:
                    if exact is None:
                        beta, nu = oracles.exact_ols(x, y)
                        exact = {
                            "beta_ols": beta,
                            "z_stats": math.sqrt(x.shape[0]) * beta / (sigma * np.sqrt(nu)),
                            "y_tilde": ref["puffer"][0] @ beta,
                        }
                    assert gap(got, exact[name]) <= max(1e-12, 2 * gap(want, exact[name])), (family, seed, name)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rank_deficient_records(self, monkeypatch, call):
        # a column that is the sum of two others, over eight blocks: the
        # error kind and message form of the one-call route
        rng = np.random.default_rng(31)
        x = rng.standard_normal((40, 4))
        x[:, 3] = x[:, 0] + x[:, 1]
        y = rng.standard_normal(40)
        records = []
        for rows in (None, 5):
            if rows is not None:
                self.blocks_of(monkeypatch, rows)
                assert len(linalg._row_blocks(40, 4)) == 9
            with pytest.raises(RankError) as raised:
                self.CALLS[call](x, y)
            records.append(re.sub(r"\d\.\d{3}e[+-]\d+", "#", str(raised.value)))
        assert records[0] == records[1]
        assert records[1] == "matrix is column-rank deficient: rank 3 < 4 columns (singular value # <= tol #)"

    def test_failures_surface_as_numerical_errors(self, monkeypatch):
        x = tall_problem(32, 40, 4)[0]
        self.blocks_of(monkeypatch, 5)

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError, match=r"^SVD failed to converge: SVD did not converge$"):
            linalg.svd(x)
        monkeypatch.setattr(np.linalg, "svd", lambda r: (np.full((4, 4), np.nan), np.ones(4), np.eye(4)))
        with pytest.raises(NumericalError, match=r"^SVD produced non-finite factors$"):
            linalg.svd(x)

    @pytest.mark.parametrize("rows, n, p", [(None, 30, 6), (None, 4095, 50), (20, 39, 4), (20, 21, 20), (20, 30, 60)])
    def test_one_block_is_bit_equal(self, monkeypatch, rows, n, p):
        if rows is not None:
            self.blocks_of(monkeypatch, rows)
        assert linalg._row_blocks(n, p) == [0, n]
        x = np.random.default_rng(33).standard_normal((n, p))
        f = linalg.svd(x)
        u, d, vt = np.linalg.svd(x, full_matrices=False)
        assert (f.u.tobytes(), f.d.tobytes(), f.v.T.tobytes()) == (u.tobytes(), d.tobytes(), vt.tobytes())
        if n > p:  # and X~ written over U is the one product U V'
            assert linalg.multiply_in_place(f.u, f.v.T).tobytes() == (u @ vt).tobytes()

    def test_row_blocks(self):
        assert linalg._row_blocks(4095, 50) == [0, 4095]
        assert linalg._row_blocks(4096, 50) == [0, 2048, 4096]
        assert linalg._row_blocks(20000, 100) == [0, 2222, 4444, 6666, 8888, 11111, 13333, 15555, 17777, 20000]
        assert linalg._row_blocks(8000, 300) == [0, 2666, 5333, 8000]  # B = 8p = 2400
        assert linalg._row_blocks(4799, 300) == [0, 4799]
        assert linalg._row_blocks(5000, 5000) == [0, 5000]  # p >= n: one block
        assert linalg._row_blocks(4096, 9000) == [0, 4096]

    @pytest.mark.parametrize("name", ["svd", "puffer_scaled", "inference"])
    def test_memory_bound(self, monkeypatch, name):
        # eight blocks of 500 rows: U and a few blocks besides X
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", 500)
        x, y = tall_problem(22, 4000, 50)
        assert len(linalg._row_blocks(*x.shape)) == 9
        call = {"svd": lambda x, y: linalg.svd(x), "puffer_scaled": puffer_scaled, "inference": estimators.inference}
        tracemalloc.start()
        try:
            call[name](x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * x.nbytes


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


def spiked_wide_problem(seed, cond):
    """A p > n design with singular values from 1 down to 1/cond."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((int(rng.integers(n + 4, 37)), n)))
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T, rng.standard_normal(n)


# each family's designs, and the condition number the spiked ones reach
# (1 for verify's families, whose tau = 0 transforms are well conditioned)
WIDE_FAMILIES = {
    "wide": (lambda seed: verify.wide_problems(seed)[:2], 1.0),
    "clustered_wide": (lambda seed: verify.clustered_wide_problems(seed)[:2], 1.0),
    **{f"spiked_{cond:.0e}": (functools.partial(spiked_wide_problem, cond=cond), cond) for cond in (1e2, 1e4, 1e6, 1e8)},
}


class TestWideFactorization:
    """puffer_tau and project_rowspace take U and d from the QR of the p x n
    X' and an SVD of the n x n R' (linalg._wide_svd); X's V is never formed."""

    def test_one_qr_and_one_n_by_n_svd(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        x, y = wide_problem(40, 6, 20)
        one_factorization = [("qr", (20, 6)), ("svd", (6, 6))]
        for tau in (0.0, 1.0):
            calls.clear()
            puffer_tau(x, y, tau)
            assert calls == one_factorization
        calls.clear()
        project_rowspace(x, np.ones(20), 0.0)
        assert calls == one_factorization
        calls.clear()
        project_rowspace(x, np.ones(20), 1.0)
        assert calls == []

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("family", WIDE_FAMILIES)
    def test_matches_one_svd_route(self, family, tau):
        # At tau = 0, X~ is X's polar factor U V', which moves by up to
        # about cond * eps when X does by eps: two backward-stable routes
        # agree only to that (8e-9 at cond 1e8 over these seeds), so the
        # bound there is 1e-12 or 1e-14 cond, whichever is larger.
        problem, cond = WIDE_FAMILIES[family]
        bound = max(1e-12, 1e-14 * cond) if tau == 0.0 else 1e-12
        for seed in range(20):
            x, y = problem(seed)
            pair = puffer_tau(x, y, tau)
            u, d, vt = np.linalg.svd(x, full_matrices=False)
            w = 1.0 / np.sqrt(np.square(d) + tau)
            assert gap(pair.x_tilde, (u * (w * d)) @ vt) <= bound, seed
            assert gap(pair.y_tilde, (u * w) @ (u.T @ y)) <= bound, seed

    @pytest.mark.parametrize("call", ["puffer_tau", "project_rowspace"])
    def test_row_rank_at_n_by_p_tolerance(self, monkeypatch, call):
        # the rank is tested at the tolerance an SVD of the n x p X takes,
        # max(n, p) eps s_1, not the n x n factor's n eps s_1
        x, y = wide_problem(41, 3, 600)
        real = linalg.svd

        def squeezed(m):
            f = real(m)
            if m.shape == (3, 3):  # R': put its last singular value between the two
                f = dataclasses.replace(f, d=f.d * np.array([1.0, 1.0, 300 * linalg.EPS]))
            return f

        monkeypatch.setattr(linalg, "svd", squeezed)
        run = {"puffer_tau": lambda: puffer_tau(x, y, 0.0), "project_rowspace": lambda: project_rowspace(x, np.ones(600), 0.0)}
        with pytest.raises(RankError, match=r"^matrix is row-rank deficient: rank 2 < 3 rows "):
            run[call]()

    def test_failures_surface_as_numerical_errors(self, monkeypatch):
        x, y = wide_problem(42, 4, 9)

        def diverges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", diverges)
        with pytest.raises(NumericalError, match=r"^SVD failed to converge: SVD did not converge$"):
            puffer_tau(x, y, 1.0)
        monkeypatch.setattr(np.linalg, "qr", diverges)
        with pytest.raises(NumericalError, match=r"^SVD failed to converge: SVD did not converge$"):
            project_rowspace(x, np.ones(9), 0.0)

    def test_overflowing_factor_keeps_its_record(self):
        # a row norm past float64 puts inf in R, as it did in X's d
        x, y = wide_problem(44, 6, 400)
        for call in (lambda: puffer_tau(x * 1e307, y, 1.0), lambda: project_rowspace(x * 1e307, np.ones(400), 0.0)):
            with pytest.raises(NumericalError, match=r"^SVD produced non-finite factors$"):
                call()

    def test_memory_bound(self):
        # one X-sized array at a time (the copy QR factors, then X~ = F_tau X
        # with the n x n F_tau), where V' and the product (U w d) V' took two
        x, y = wide_problem(43, 50, 4000)
        tracemalloc.start()
        try:
            puffer_tau(x, y, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.nbytes


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


RANK_DEFICIENT = np.vstack([np.ones(5), np.ones(5)])
# (x, v, tau) that fail at X, v, tau and rank in that order, each also
# carrying every later fault, and the record the first fault raises
PRECEDENCE = {
    "x": ((RANK_DEFICIENT * [[1.0], [np.nan]], np.full(5, np.nan), math.nan), DataError, r"^matrix contains NaN or Inf entries$"),
    "x_shape": ((np.ones((6, 5)), np.ones(4), math.nan), DataError, r"^project_rowspace requires p >= n, got n=6, p=5$"),
    "v": ((RANK_DEFICIENT, np.full(5, np.nan), math.nan), DataError, r"^vector contains NaN or Inf entries$"),
    "v_length": ((RANK_DEFICIENT, np.ones(4), -1.0), DataError, r"^expected vector of length 5, got 4$"),
    "tau": ((RANK_DEFICIENT, np.ones(5), math.nan), ValueError, r"^tau must be finite, got nan$"),
    "tau_sign": ((RANK_DEFICIENT, np.ones(5), -1.0), ValueError, r"^tau must be nonnegative, got -1.0$"),
    "rank": ((RANK_DEFICIENT, np.ones(5), 0.0), RankError, r"^matrix is row-rank deficient: rank 1 < 2 rows "),
}


class TestRowspaceProjector:
    """rowspace_projector(x, tau) is project_rowspace with X factored once:
    its first call runs project_rowspace's checks, in their order, and
    every call returns project_rowspace's bytes."""

    @pytest.mark.parametrize("tau", [0.0, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("family", WIDE_FAMILIES)
    def test_bytes_equal_project_rowspace(self, family, tau):
        problem, _ = WIDE_FAMILIES[family]
        for seed in range(5):
            x, _ = problem(seed)
            rng = np.random.default_rng(seed + 7)
            vectors = [*rng.standard_normal((8, x.shape[1])), x.T @ rng.standard_normal(x.shape[0]), np.zeros(x.shape[1])]
            project = rowspace_projector(x, tau)
            for i, v in enumerate(vectors):
                assert project(v).tobytes() == project_rowspace(x, v, tau).tobytes(), (seed, i)

    def test_factors_once(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        x, _ = wide_problem(40, 6, 20)
        project = rowspace_projector(x, 0.0)
        assert calls == []
        for v in np.random.default_rng(1).standard_normal((5, 20)):
            project(v)
        assert calls == [("qr", (20, 6)), ("svd", (6, 6))]
        calls.clear()
        project = rowspace_projector(x, 1.0)
        project(np.ones(20))
        assert calls == []

    @pytest.mark.parametrize("fault", PRECEDENCE)
    def test_error_precedence(self, fault):
        (x, v, tau), error, record = PRECEDENCE[fault]
        with pytest.raises(error, match=record):
            project_rowspace(x, v, tau)
        project = rowspace_projector(x, tau)
        for _ in range(2):  # a failed call leaves the checks to the next one
            with pytest.raises(error, match=record):
                project(v)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize(
        "scale, record",
        [(1e160, r"^XX' overflows float64; rescale the data$"), (1e-165, r"^XX' underflows float64; rescale the data$")],
        ids=["overflow", "underflow"],
    )
    def test_out_of_range_raises_at_first_projection(self, scale, record, tau):
        x, _ = wide_problem(30, 6, 12)
        project = rowspace_projector(x * scale, tau)
        for call in (project, lambda v: project_rowspace(x * scale, v, tau)):
            with pytest.raises(NumericalError, match=record):
                call(np.ones(12))

    def test_checks_run_until_a_call_passes_them(self):
        # a bad first vector factors nothing for later calls to skip: the
        # next good vector runs every check and projects as project_rowspace
        x, _ = wide_problem(14)
        project = rowspace_projector(x, 0.0)
        with pytest.raises(DataError, match=r"^vector contains NaN or Inf entries$"):
            project(np.full(7, np.nan))
        v = np.arange(7.0)
        assert project(v).tobytes() == project_rowspace(x, v, 0.0).tobytes()
        with pytest.raises(DataError, match=r"^expected vector of length 7, got 3$"):
            project(np.ones(3))


def ridge_product(x, y, tau: float) -> np.ndarray:
    """Ridge coefficients as (F_tau X)' F_tau Y, from the puffer_tau pair."""
    pair = puffer_tau(x, y, tau)
    return pair.x_tilde.T @ pair.y_tilde


class TestRidgeViaPrecond:
    def test_square_invertible_interpolates(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        y = rng.standard_normal(4)
        beta = ridge_product(x, y, 0.0)
        expected = oracles.gauss_jordan_solve(x, y)
        assert np.max(np.abs(beta - expected)) <= 1e-8

    def test_seed_fixed_3x7_matches_ridge(self):
        x, y = wide_problem(20)
        assert np.max(np.abs(ridge_product(x, y, 1.0) - estimators.ridge(x, y, 1.0))) <= 1e-9

    def test_zero_response(self):
        x, _ = wide_problem(21)
        assert np.array_equal(ridge_product(x, np.zeros(3), 0.5), np.zeros(7))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    def test_matches_ridge_for_random_tau(self, seed, tau):
        x, y = wide_problem(seed)
        a = ridge_product(x, y, tau)
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
    def test_puffer_tau_and_ridge_product_overflow(self, tau):
        x, y = wide_problem(31, 6, 12)
        for call in (puffer_tau, ridge_product):
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
        for call in (puffer_tau, ridge_product):
            with self.raises("(XX' + tau I)^-1/2"):
                call(x * 1e-165, y, 0.0)

    def test_ordinary_scale_is_bit_unchanged(self):
        # the range guards leave the R-SVD route's bits as they are
        x, y = wide_problem(33, 6, 12)
        x = x * 1e150
        u, d, _ = np.linalg.svd(np.linalg.qr(x.T, mode="r").T)
        w = 1.0 / np.sqrt(np.square(d) + 0.5)
        assert puffer_tau(x, y, 0.5).x_tilde.tobytes() == (((u * w) @ u.T) @ x).tobytes()
        v = np.ones(12)
        expected = x.T @ np.linalg.solve(x @ x.T + 0.5 * np.eye(6), x @ v)
        assert project_rowspace(x, v, 0.5).tobytes() == expected.tobytes()
