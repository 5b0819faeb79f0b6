import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import estimators, solver
from puffer_lasso.errors import DataError
from puffer_lasso.penalties import (
    elastic_net,
    lasso,
    mcp,
    pen_derivative,
    pen_value,
    scad,
    soft_threshold,
)
from puffer_lasso.preconditioners import project_rowspace, puffer_tau
from puffer_lasso.solver import (
    KKT_TOL,
    MAX_ITER,
    FitResult,
    kkt_residual,
    lambda_max,
    multistart_local_minima,
    objective_value,
    solve,
    solve_path,
)
from puffer_lasso.verify import clustered_wide_problems, wide_problems

import oracles


def tall_problem(seed=101, n=10, p=4, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = rng.uniform(-1.5, 1.5, p)
    return x, x @ beta + noise * rng.standard_normal(n)


def recompute_kkt(x, y, fit: FitResult) -> float:
    """Independent KKT residual from raw inputs (test-local logic)."""
    grad = x.T @ (y - x @ fit.beta)
    worst = 0.0
    for j, b in enumerate(fit.beta):
        if b != 0.0:
            worst = max(worst, abs(grad[j] - fit.lam * pen_derivative(fit.penalty, float(b))))
        else:
            worst = max(worst, abs(grad[j]) - fit.lam)
    return max(worst, 0.0)


class TestSolve:
    def test_zero_lambda_recovers_ols(self):
        x, y = tall_problem()
        fit = solve(x, y, 0.0, lasso())
        assert np.max(np.abs(fit.beta - estimators.ols(x, y))) <= 1e-6

    def test_orthonormal_design_soft_thresholds(self):
        # the classical orthonormal-design identity for the Lasso
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 5)))
        y = np.random.default_rng(1).standard_normal(12)
        z = q.T @ y
        for lam in [0.05, 0.3, 2.0]:
            fit = solve(q, y, lam, lasso())
            target = np.array([soft_threshold(float(t), lam) for t in z])
            assert np.max(np.abs(fit.beta - target)) <= 1e-8

    def test_seed_fixed_10x4_beats_random_perturbations(self):
        x, y = tall_problem()
        rng = np.random.default_rng(55)
        for lam in [0.3, 1.0, 2.5]:
            fit = solve(x, y, lam, lasso())
            base = objective_value(x, y, lam, lasso(), fit.beta)
            deltas = rng.standard_normal((10_000, 4))
            deltas *= (1e-2 / np.linalg.norm(deltas, axis=1))[:, None] * rng.random((10_000, 1))
            objs = [
                objective_value(x, y, lam, lasso(), fit.beta + d) for d in deltas
            ]
            assert base <= min(objs) + 1e-12

    def test_seed_fixed_10x4_matches_subgradient_oracle(self):
        x, y = tall_problem()
        for lam in [0.3, 1.0, 2.5]:
            fit = solve(x, y, lam, lasso())
            sg = oracles.lasso_subgradient_descent(x, y, lam, iterations=200_000)
            assert np.max(np.abs(fit.beta - sg)) <= 1e-5

    def test_seed_fixed_10x4_matches_sign_enumeration(self):
        x, y = tall_problem()
        for lam in [0.3, 1.0, 2.5]:
            fit = solve(x, y, lam, lasso())
            exact = oracles.lasso_sign_enumeration(x, y, lam)
            assert np.max(np.abs(fit.beta - exact)) <= 1e-8

    def test_half_convention_factor_of_two(self):
        # minimizing ||y - X b||^2 + lam ||b||_1 (no 0.5 factor) is the same
        # problem at half the weight here; orthonormal X makes it explicit
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((10, 4)))
        y = np.random.default_rng(10).standard_normal(10)
        lam = 0.8
        fit = solve(q, y, lam / 2.0, lasso())
        target = np.array([soft_threshold(float(t), lam / 2.0) for t in q.T @ y])
        assert np.max(np.abs(fit.beta - target)) <= 1e-10

    def test_max_iter_exhaustion_returns_unconverged(self):
        # an eq10_gap design on which start 6 of 12 runs to the sweep cap
        x, y, _ = clustered_wide_problems(13000046)
        pair = puffer_tau(x, y, 0.0)
        xt, yt = pair.x_tilde, pair.y_tilde
        scale = lambda_max(xt, yt)
        lam = 0.35 * scale
        fits = multistart_local_minima(xt, yt, lam, mcp(1.5), 12)
        assert [f.converged for f in fits].count(False) == 1
        rng = np.random.default_rng(0)  # the multistart stream
        inits = [rng.uniform(-scale, scale, size=xt.shape[1]) for _ in range(12)]
        fit = solve(xt, yt, lam, mcp(1.5), init=inits[6])
        assert not fit.converged
        assert fit.iterations == MAX_ITER
        assert any(f.beta.tobytes() == fit.beta.tobytes() and not f.converged for f in fits)
        beta, sweeps, converged = oracles.coordinate_descent_reference(xt, yt, lam, mcp(1.5), init=inits[6])
        assert fit.beta.tobytes() == beta.tobytes()
        assert (sweeps, converged) == (MAX_ITER, False)

    def test_nan_input_rejected(self):
        x, y = tall_problem()
        x[0, 0] = np.nan
        with pytest.raises(DataError):
            solve(x, y, 0.1, lasso())

    def test_negative_lambda_rejected(self):
        x, y = tall_problem()
        with pytest.raises(ValueError):
            solve(x, y, -0.1, lasso())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("entry", ["solve", "solve_path", "multistart"])
    def test_nonfinite_lambda_rejected(self, entry, value):
        # NaN fails every comparison, so a lam < 0 check alone lets it
        # through to a "converged" all-zero fit; +inf gives a NaN objective
        x, y = tall_problem()
        with pytest.raises(ValueError, match=str(value)):
            if entry == "solve":
                solve(x, y, value, mcp())
            elif entry == "solve_path":
                solve_path(x, y, [3.0, value, 1.0], lasso())
            else:
                multistart_local_minima(x, y, value, mcp())

    def test_kkt_residual_keeps_nan(self):
        assert math.isnan(kkt_residual(np.array([math.nan, 0.0]), np.zeros(2), 1.0, lasso()))
        assert math.isnan(kkt_residual(np.array([0.0, math.nan]), np.array([0.0, 1.0]), 1.0, lasso()))

    def test_dimension_mismatch_rejected(self):
        x, y = tall_problem()
        with pytest.raises(DataError):
            solve(x, y[:-1], 0.1, lasso())

    def test_zero_column_gets_zero_coefficient(self):
        x, y = tall_problem()
        x[:, 2] = 0.0
        fit = solve(x, y, 0.1, lasso())
        assert fit.beta[2] == 0.0
        assert fit.converged

    @pytest.mark.parametrize("pen", [lasso(), scad(), mcp()])
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10**6))
    def test_kkt_recompute_independent(self, pen, seed):
        x, y = tall_problem(seed)
        lam = 0.25 * lambda_max(x, y)
        fit = solve(x, y, lam, pen)
        assert fit.converged
        assert recompute_kkt(x, y, fit) <= KKT_TOL

    def test_active_set_matches_nonzeros(self):
        x, y = tall_problem(7)
        fit = solve(x, y, 0.8, lasso())
        assert fit.active_set == tuple(int(j) for j in np.nonzero(fit.beta)[0])

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10**6))
    def test_permutation_equivariance(self, seed):
        x, y = tall_problem(seed)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(4)
        lam = 0.4 * lambda_max(x, y)
        direct = solve(x, y, lam, lasso()).beta
        permuted = solve(x[:, perm], y, lam, lasso()).beta
        # sweep order differs under permutation, so agreement is at the
        # solver tolerance rather than bit level
        assert np.max(np.abs(direct[perm] - permuted)) <= 1e-6

    def test_deterministic_reruns(self):
        x, y = tall_problem(13)
        a = solve(x, y, 0.5, scad())
        b = solve(x, y, 0.5, scad())
        assert np.array_equal(a.beta, b.beta)
        assert a.iterations == b.iterations
        assert a.kkt_residual == b.kkt_residual
        assert a.objective == b.objective

    def test_objective_uses_half_factor(self):
        x, y = tall_problem(15)
        fit = solve(x, y, 0.7, lasso())
        r = y - x @ fit.beta
        manual = 0.5 * float(r @ r) + 0.7 * float(np.sum(np.abs(fit.beta)))
        assert fit.objective == pytest.approx(manual, rel=1e-14)


class TestKernelMatchesReference:
    """solve's sweep against the plain numpy loop in oracles: same update
    order and arithmetic, so beta is bit-equal and the sweep count and
    convergence flag agree."""

    @staticmethod
    def designs():
        rng = np.random.default_rng(31)
        for seed in range(3):
            x, y = tall_problem(seed=200 + seed, n=14, p=6)
            yield f"tall{seed}", x, y
            x, y, _ = wide_problems(seed)
            yield f"wide{seed}", x, y
        x, y = tall_problem(seed=210, n=12, p=5)
        x[:, 3] = 0.0
        yield "zero_column", x, y
        yield "scaled_columns", x * rng.uniform(0.1, 10.0, size=5), y
        # lam / c_j exceeds gamma of mcp(1.5) and a - 1 of scad(): the
        # threshold map is nonzero inside [-lam/c_j, lam/c_j] there
        x, y = tall_problem(seed=212, n=12, p=5)
        yield "shrunken_columns", x * rng.uniform(0.04, 0.06, size=5), y

    @pytest.mark.parametrize("pen", [lasso(), elastic_net(0.5), scad(), mcp(1.5)])
    def test_bit_equal_beta_sweeps_and_flag(self, pen, monkeypatch):
        rng = np.random.default_rng(32)
        checked_long = False
        left_zero = False
        for name, x, y in self.designs():
            scale = lambda_max(x, y)
            for frac in (0.05, 0.3, 0.7):
                lam = frac * scale
                for init in (None, rng.uniform(-scale, scale, size=x.shape[1])):
                    for max_iter in (MAX_ITER, 70):
                        monkeypatch.setattr(solver, "MAX_ITER", max_iter)
                        fit = solve(x, y, lam, pen, init=init)
                        visits = []
                        beta, sweeps, converged = oracles.coordinate_descent_reference(
                            x, y, lam, pen, init=init, max_iter=max_iter, visits=visits
                        )
                        where = (name, frac, init is None, max_iter)
                        assert fit.beta.tobytes() == beta.tobytes(), where
                        assert fit.iterations == sweeps, where
                        assert fit.converged == converged, where
                        checked_long |= sweeps > 64
                        left_zero |= any(
                            old == 0.0 and abs(z) <= level and new != 0.0 for old, z, level, new in visits
                        )
        # the 64-sweep drift refresh is on the compared path
        assert checked_long
        # and so is, for SCAD and MC+, a coordinate that left zero with
        # |z| <= lam / c_j: the nonconvex regime, where solve must not skip
        assert left_zero == (not pen.convex)


class TestSharedGram:
    """solve_path and multistart_local_minima hand one X'X to every fit;
    each result must be the one a plain solve call gives."""

    @staticmethod
    def designs():
        x, y = tall_problem(seed=220, n=14, p=6)
        yield "tall", x, y
        for seed in range(2):
            x, y, _ = wide_problems(seed)
            yield f"wide{seed}", x, y
        x, y = tall_problem(seed=221, n=12, p=5)
        x[:, 1] = 0.0
        yield "zero_column", x, y

    @staticmethod
    def assert_same(fit, ref, where):
        assert fit.beta.tobytes() == ref.beta.tobytes(), where
        assert fit.iterations == ref.iterations, where
        assert fit.converged == ref.converged, where
        assert fit.kkt_residual == ref.kkt_residual, where
        assert fit.objective == ref.objective, where

    @pytest.mark.parametrize("pen", [lasso(), elastic_net(0.5), scad(), mcp(1.5)])
    def test_path_equals_warm_started_chain(self, pen):
        for name, x, y in self.designs():
            top = lambda_max(x, y)
            grid = np.geomspace(top, 0.02 * top, 12)
            fits = solve_path(x, y, grid, pen)
            warm = None
            for lam, fit in zip(grid, fits):
                ref = solve(x, y, float(lam), pen, init=warm)
                self.assert_same(fit, ref, (name, lam))
                warm = ref.beta

    @pytest.mark.parametrize("pen", [scad(), mcp(1.5)])
    def test_multistart_equals_plain_solves(self, pen):
        designs = [*self.designs(), *((f"clustered{s}", *clustered_wide(s)) for s in range(3))]
        for name, x, y in designs:
            scale = lambda_max(x, y)
            lam = 0.3 * scale
            fits = multistart_local_minima(x, y, lam, pen, 6)
            rng = np.random.default_rng(0)
            refs = []
            for _ in range(6):
                ref = solve(x, y, lam, pen, init=rng.uniform(-scale, scale, size=x.shape[1]))
                if all(np.max(np.abs(ref.beta - r.beta)) > 1e-5 for r in refs):
                    refs.append(ref)
            refs.sort(key=lambda f: (f.objective, tuple(f.beta)))
            assert len(fits) == len(refs), name
            for fit, ref in zip(fits, refs):
                self.assert_same(fit, ref, name)


class TestSolvePath:
    def test_lambda_max_zeroes_everything(self):
        x, y = tall_problem(20)
        top = lambda_max(x, y)
        fits = solve_path(x, y, [1.5 * top, 1.01 * top], lasso())
        for fit in fits:
            assert np.array_equal(fit.beta, np.zeros(4))

    def test_nested_active_sets_orthonormal(self):
        q, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((14, 5)))
        y = np.random.default_rng(22).standard_normal(14)
        grid = np.geomspace(lambda_max(q, y) * 1.1, 1e-3, 12)
        fits = solve_path(q, y, grid, lasso())
        previous: set[int] = set()
        for fit in fits:
            current = set(fit.active_set)
            assert previous.issubset(current)
            previous = current

    def test_final_entry_matches_cold_start(self):
        x, y = tall_problem(23)
        grid = np.geomspace(lambda_max(x, y), 1e-3, 10)
        fits = solve_path(x, y, grid, lasso())
        cold = solve(x, y, float(grid[-1]), lasso())
        assert np.max(np.abs(fits[-1].beta - cold.beta)) <= 1e-6

    def test_grid_validation(self):
        x, y = tall_problem(24)
        with pytest.raises(ValueError):
            solve_path(x, y, [], lasso())
        with pytest.raises(ValueError):
            solve_path(x, y, [0.1, 0.5], lasso())
        with pytest.raises(ValueError):
            solve_path(x, y, [0.5, 0.0], lasso())
        with pytest.raises(ValueError):
            solve_path(x, y, [0.5, 0.5], lasso())


def clustered_wide(seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((2, 2))
    x = np.column_stack(
        [base[:, 0], base[:, 0] + 0.05 * rng.standard_normal(2),
         base[:, 1], base[:, 1] + 0.05 * rng.standard_normal(2)]
    )
    x /= np.linalg.norm(x, axis=0)
    y = x @ np.array([1.5, 0.0, -1.0, 0.0]) + 0.1 * rng.standard_normal(2)
    return x, y


class TestMultistart:
    def test_convex_returns_single_solution(self):
        x, y = tall_problem(30)
        fits = multistart_local_minima(x, y, 0.4, lasso())
        assert len(fits) == 1

    @pytest.mark.parametrize("pen", [lasso(), mcp()])
    def test_zero_starts_rejected(self, pen):
        x, y = tall_problem(30)
        with pytest.raises(ValueError, match="starts must be >= 1, got 0"):
            multistart_local_minima(x, y, 0.4, pen, starts=0)

    def test_lambda_zero_single_representative(self):
        x, y = tall_problem(31)
        fits = multistart_local_minima(x, y, 0.0, mcp())
        assert len(fits) == 1

    def test_constructed_mcp_instance_has_close_minima(self):
        # search a small seed range for an instance with two local minima,
        # then verify the row-space gap bound per coordinate
        found = 0
        for seed in range(40):
            x, y = clustered_wide(seed)
            pair = puffer_tau(x, y, 0.0)
            lam = 0.4 * lambda_max(pair.x_tilde, pair.y_tilde)
            fits = multistart_local_minima(pair.x_tilde, pair.y_tilde, lam, mcp(1.5), 12)
            fits = [f for f in fits if f.converged]
            if len(fits) < 2:
                continue
            found += 1
            for i in range(len(fits)):
                for j in range(i + 1, len(fits)):
                    gap = project_rowspace(x, fits[i].beta - fits[j].beta, 0.0)
                    assert np.max(np.abs(gap)) <= 2.0 * lam + 1e-6
        assert found >= 3

    def test_every_minimum_satisfies_kkt(self):
        x, y = clustered_wide(2)
        pair = puffer_tau(x, y, 0.0)
        lam = 0.4 * lambda_max(pair.x_tilde, pair.y_tilde)
        fits = multistart_local_minima(pair.x_tilde, pair.y_tilde, lam, mcp(1.5))
        for fit in fits:
            if fit.converged:
                assert recompute_kkt(pair.x_tilde, pair.y_tilde, fit) <= KKT_TOL

    def test_deterministic_bit_identical(self):
        x, y = clustered_wide(3)
        a = multistart_local_minima(x, y, 0.2, mcp(1.5), 10)
        b = multistart_local_minima(x, y, 0.2, mcp(1.5), 10)
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.beta, fb.beta)
            assert fa.objective == fb.objective
            assert fa.iterations == fb.iterations
