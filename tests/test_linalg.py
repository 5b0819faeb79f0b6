import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import estimators, linalg, preconditioners
from puffer_lasso.errors import DataError, NumericalError, RankError
from puffer_lasso.solver import lambda_max

import oracles


def random_matrix(seed, n, p):
    return np.random.default_rng(seed).standard_normal((n, p))


class TestSvd:
    def test_identity(self):
        f = linalg.svd(np.eye(3))
        assert np.allclose(f.u, np.eye(3))
        assert np.allclose(f.v, np.eye(3))
        assert np.allclose(f.d, [1.0, 1.0, 1.0])

    def test_diagonal_singular_values(self):
        f = linalg.svd(np.diag([3.0, 2.0]))
        assert np.allclose(f.d, [3.0, 2.0])

    def test_seed_fixed_5x3_matches_jacobi_oracle(self):
        x = random_matrix(5, 5, 3)
        f = linalg.svd(x)
        expected = oracles.singular_values(x)
        assert np.max(np.abs(f.d - expected)) <= 1e-10

    def test_seed_fixed_5x3_matches_characteristic_cubic(self):
        x = random_matrix(5, 5, 3)
        f = linalg.svd(x)
        eig = oracles.characteristic_cubic_eigenvalues(x.T @ x)
        assert np.max(np.abs(f.d - np.sqrt(np.clip(eig, 0, None)))) <= 1e-10

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_empty_and_1d(self):
        with pytest.raises(DataError):
            linalg.svd(np.zeros((0, 2)))
        with pytest.raises(DataError):
            linalg.svd(np.ones(3))

    def test_nonconvergence_surfaces_as_numerical_error(self, monkeypatch):
        from puffer_lasso.errors import NumericalError

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError, match="converge"):
            linalg.svd(np.eye(2))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 12))
    def test_reconstruction_and_orthonormality(self, seed, n, p):
        x = random_matrix(seed, n, p)
        f = linalg.svd(x)
        k = min(n, p)
        assert f.u.shape == (n, k) and f.v.shape == (p, k) and f.d.shape == (k,)
        assert np.linalg.norm((f.u * f.d) @ f.v.T - x) <= 1e-8 * max(np.linalg.norm(x), 1e-30)
        assert np.max(np.abs(f.u.T @ f.u - np.eye(k))) <= 1e-10
        assert np.max(np.abs(f.v.T @ f.v - np.eye(k))) <= 1e-10
        assert np.all(np.diff(f.d) <= 0)
        assert np.all(f.d >= 0)


class TestVectorValidation:
    def test_rejects_nan_and_length_mismatch(self):
        with pytest.raises(DataError):
            linalg.as_vector([1.0, np.nan])
        with pytest.raises(DataError):
            linalg.as_vector([1.0, 2.0], length=3)
        with pytest.raises(DataError):
            linalg.as_vector([])


HUGE = 10**400  # an int past the float range


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: linalg.require_scalar("tau", np.nan), ValueError, "tau must be finite, got nan"),
            (lambda: linalg.require_scalar("tau", np.inf), ValueError, "tau must be finite, got inf"),
            (lambda: linalg.require_scalar("tau", -np.inf, None), ValueError, "tau must be finite, got -inf"),
            (lambda: linalg.require_scalar("tau", -1.0), ValueError, "tau must be nonnegative, got -1.0"),
            (lambda: linalg.require_scalar("sigma", 0.0, "positive"), ValueError, "sigma must be positive, got 0.0"),
            (lambda: linalg.require_scalar("--seed", -HUGE, error=DataError), DataError,
             f"--seed must be nonnegative, got {-HUGE}"),
            (lambda: linalg.require_descending("lambda grid", [2.0, 1.0, 1.0]), ValueError,
             "lambda grid must be strictly descending, got 1.0 then 1.0"),
            (lambda: linalg.require_descending("--lambda-grid", (1.0, 2.0), DataError), DataError,
             "--lambda-grid must be strictly descending, got 1.0 then 2.0"),
            (lambda: linalg.as_design(np.eye(3), name="ols", needs="n > p"), RankError,
             "ols requires n > p, got n=3, p=3"),
            (lambda: linalg.as_design(np.ones((4, 2)), np.ones(4), "puffer_tau", "p >= n"), DataError,
             "puffer_tau requires p >= n, got n=4, p=2"),
            # the response is checked before the shape condition
            (lambda: linalg.as_design(np.eye(3), np.ones(2), "ols", "n > p"), DataError,
             "expected vector of length 3, got 2"),
        ],
        ids=[
            "nan", "inf", "neg_inf_unsigned", "negative", "zero_not_positive", "huge_negative_int",
            "repeated", "ascending", "needs_n_gt_p", "needs_p_ge_n", "response_first",
        ],
    )
    def test_message(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_accepts(self):
        assert linalg.require_scalar("--seed", HUGE) == HUGE
        assert linalg.require_scalar("tau", 0.0) == 0.0
        assert linalg.require_scalar("lasso param", -2.5, None) == -2.5
        linalg.require_descending("lambda grid", [3.0, 2.0, 1e-9])
        m, v = linalg.as_design([[1, 2], [3, 4], [5, 7]], name="ols", needs="n > p")
        assert m.dtype == np.float64 and v is None


class TestRankOf:
    def test_plain(self):
        f = linalg.SvdFactors(
            u=np.eye(3), d=np.array([3.0, 2.0, 1.0]), v=np.eye(3), rank_tol=1e-12
        )
        assert linalg.rank_of(f) == 3

    def test_below_tolerance(self):
        f = linalg.svd(np.diag([1.0, 1e-18]))
        assert linalg.rank_of(f) == 1

    def test_rank_two_outer_product(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, 4))
        c, d = rng.standard_normal((2, 3))
        x = np.outer(a, c) + np.outer(b, d)
        assert linalg.rank_of(linalg.svd(x)) == 2


class TestRequireFullRank:
    # the kind comes from the shape: column rank for n > p, row rank for
    # p >= n, a square design included; exact zeros keep the values fixed
    COLUMN = "matrix is column-rank deficient: rank 1 < 2 columns (singular value 0.000e+00 <= tol 1.998e-15)"
    ROW = "matrix is row-rank deficient: rank 1 < 2 rows (singular value 0.000e+00 <= tol 1.998e-15)"
    SQUARE = "matrix is row-rank deficient: rank 1 < 2 rows (singular value 0.000e+00 <= tol 1.332e-15)"
    TALL = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    WIDE = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: estimators.ols(x, np.ones(3)),
            lambda x: preconditioners.puffer(x, np.ones(3)),
            linalg.gram_inverse_diagonal,
        ],
        ids=["ols", "puffer", "gram_inverse_diagonal"],
    )
    def test_column_message(self, call):
        with pytest.raises(RankError, match=rf"^{re.escape(self.COLUMN)}$"):
            call(self.TALL)

    @pytest.mark.parametrize("x, message", [(WIDE, ROW), (WIDE[:, :2], SQUARE)], ids=["wide", "square"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: preconditioners.puffer_tau(x, np.ones(2), 0.0),
            lambda x: preconditioners.project_rowspace(x, np.ones(x.shape[1]), 0.0),
        ],
        ids=["puffer_tau", "project_rowspace"],
    )
    def test_row_message(self, call, x, message):
        with pytest.raises(RankError, match=rf"^{re.escape(message)}$"):
            call(x)


class TestFinite:
    def test_returns_the_result(self):
        a = random_matrix(27, 4, 3)
        assert linalg.finite("X'X", lambda: a.T @ a).tobytes() == (a.T @ a).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_raises_without_warning(self, bad):
        a = np.array([1e200, 1.0, bad])
        with pytest.raises(NumericalError, match=r"^a'a overflows float64; rescale the data$"):
            linalg.finite("a'a", lambda: a * a)

    def test_no_input_sized_temporary(self):
        # an isfinite(...).all() check would allocate a boolean array of
        # a.size bytes here, which is what raised wide_path's peak RSS
        a = np.ones(1 << 20)
        tracemalloc.start()
        try:
            linalg.finite("a", lambda: a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.size // 16


class TestRequireResolved:
    MESSAGE = r"^X'X underflows float64; rescale the data$"

    @pytest.mark.parametrize("scale", [1e-155, 1e-165, 5e-324])
    def test_tiny_nonzero_column_raises(self, scale):
        m = random_matrix(24, 6, 3)
        m[:, 1] *= scale
        with pytest.raises(NumericalError, match=self.MESSAGE):
            linalg.require_resolved(m, np.einsum("ij,ij->j", m, m))
        with pytest.raises(NumericalError, match=self.MESSAGE):
            linalg.normal_equations(m, np.ones(6))

    def test_lambda_max_raises(self):
        with pytest.raises(NumericalError, match=self.MESSAGE):
            lambda_max(random_matrix(25, 6, 3) * 1e-165, np.ones(6))

    def test_zero_and_ordinary_columns_pass(self):
        m = random_matrix(26, 6, 3) * 1e-150
        m[:, 2] = 0.0
        linalg.require_resolved(m, np.einsum("ij,ij->j", m, m))
        gram, xty = linalg.normal_equations(m, np.ones(6))
        assert gram.tobytes() == (m.T @ m).tobytes()
        assert xty.tobytes() == (m.T @ np.ones(6)).tobytes()

    def test_names_the_product(self):
        with pytest.raises(NumericalError, match=r"^XX' underflows float64; rescale the data$"):
            linalg.require_resolved(np.full((2, 3), 1e-170), np.zeros(3), "XX'")


class TestGramInverseDiagonal:
    def test_identity_design(self):
        x = np.eye(4)[:, :2]
        assert np.allclose(linalg.gram_inverse_diagonal(x), [1.0, 1.0])

    def test_diagonal_gram(self):
        x = np.zeros((4, 2))
        x[0, 0] = 2.0
        x[1, 1] = 4.0
        assert np.allclose(linalg.gram_inverse_diagonal(x), [0.25, 0.0625])

    def test_seed_fixed_6x3_matches_elimination(self):
        x = random_matrix(21, 6, 3)
        nu = linalg.gram_inverse_diagonal(x)
        inv = oracles.gauss_jordan_inverse(x.T @ x)
        assert np.max(np.abs(nu - np.diag(inv))) <= 1e-10

    def test_rank_deficient_raises(self):
        x = np.ones((5, 2))
        with pytest.raises(RankError):
            linalg.gram_inverse_diagonal(x)

    def test_requires_tall_matrix(self):
        with pytest.raises(RankError):
            linalg.gram_inverse_diagonal(np.eye(3))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 8))
    def test_strictly_positive(self, seed, p):
        x = random_matrix(seed, 2 * p + 2, p)
        assert np.all(linalg.gram_inverse_diagonal(x) > 0)

    @pytest.mark.parametrize(
        "scale, name", [(1e160, "X'X"), (1e-165, "(X'X)^-1")], ids=["square_overflows", "inverse_overflows"]
    )
    def test_out_of_range_scale_raises(self, scale, name):
        # d^2 overflows to inf (nu 0) or underflows to 0 (nu inf); both used
        # to come back as a vector, with a numpy warning
        x = random_matrix(22, 8, 3) * scale
        with pytest.raises(NumericalError, match=rf"^{re.escape(name)} overflows float64; rescale the data$"):
            linalg.gram_inverse_diagonal(x)

    def test_ordinary_scale_is_bit_unchanged(self):
        x = random_matrix(23, 9, 4) * 1e150
        f = linalg.svd(x)
        assert linalg.gram_inverse_diagonal(x).tobytes() == (np.square(f.v) @ (1.0 / np.square(f.d))).tobytes()
