import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import estimators, solver
from puffer_lasso.errors import DataError, NumericalError
from puffer_lasso.penalties import (
    elastic_net,
    lasso,
    mcp,
    pen_derivative,
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

    def test_max_iter_exhaustion_returns_unconverged(self, monkeypatch):
        # an eq10_gap design on which start 6 of 12 used up MAX_ITER when
        # SCAD and MC+ fits were swept plainly; the cell polish finishes it
        x, y, _ = clustered_wide_problems(13000046)
        pair = puffer_tau(x, y, 0.0)
        xt, yt = pair.x_tilde, pair.y_tilde
        scale = lambda_max(xt, yt)
        lam = 0.35 * scale
        assert all(f.converged for f in multistart_local_minima(xt, yt, lam, mcp(1.5), 12))
        rng = np.random.default_rng(0)  # the multistart stream
        inits = [rng.uniform(-scale, scale, size=xt.shape[1]) for _ in range(12)]
        fit = solve(xt, yt, lam, mcp(1.5), init=inits[6])
        assert fit.converged and fit.polish_accepts > 0
        assert recompute_kkt(xt, yt, fit) < KKT_TOL
        # start 0's only polish is rejected, so under a lower cap it runs
        # out as the plain sweep does, bit for bit
        monkeypatch.setattr(solver, "MAX_ITER", 20)
        fit = solve(xt, yt, lam, mcp(1.5), init=inits[0])
        assert (fit.iterations, fit.converged, fit.polish_accepts) == (20, False, 0)
        beta, sweeps, converged = oracles.coordinate_descent_reference(xt, yt, lam, mcp(1.5), init=inits[0], max_iter=20)
        assert fit.beta.tobytes() == beta.tobytes()
        assert (sweeps, converged) == (20, False)

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


PENALTIES = st.sampled_from([lasso(), elastic_net(0.5), scad(), mcp(1.5)])
# coefficients that are often zero, of either sign
COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))


def same_float(a: float, b: float) -> bool:
    """Bit-equal, with every NaN equal to every NaN."""
    return float(a).hex() == float(b).hex()


class TestSupportProportionalReductions:
    """kkt_residual handles zero coefficients in one numpy reduction and
    objective_value skips them; both must equal the one-coordinate-at-a-time
    loops in oracles bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), pen=PENALTIES, lam=st.floats(0.0, 10.0))
    def test_kkt_residual_matches_the_loop(self, data, pen, lam):
        p = data.draw(st.integers(1, 10))
        grad = np.array(data.draw(st.lists(st.floats(width=64), min_size=p, max_size=p)))
        beta = np.array(data.draw(st.lists(COEFFICIENTS | st.just(math.nan), min_size=p, max_size=p)))
        assert same_float(kkt_residual(grad, beta, lam, pen), oracles.kkt_residual_reference(grad, beta, lam, pen))

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), pen=PENALTIES, lam=st.floats(0.0, 10.0), seed=st.integers(0, 2**16))
    def test_objective_value_matches_the_loop(self, data, pen, lam, seed):
        p = data.draw(st.integers(1, 10))
        x, y = tall_problem(seed=seed, n=6, p=p)
        beta = np.array(data.draw(st.lists(COEFFICIENTS, min_size=p, max_size=p)))
        assert same_float(objective_value(x, y, lam, pen, beta), oracles.objective_value_reference(x, y, lam, pen, beta))

    def test_nan_still_wins(self):
        grad = np.array([math.nan, 5.0, 0.0])
        for beta in (np.zeros(3), np.array([0.0, 1.0, -0.0]), np.array([1.0, 0.0, 0.0])):
            assert math.isnan(kkt_residual(grad, beta, 1.0, lasso()))


def within_beta_bound(beta, ref) -> bool:
    """The golden comparator's bound: 1e-6 * max(1, max |ref|)."""
    return float(np.max(np.abs(beta - ref))) <= 1e-6 * max(1.0, float(np.max(np.abs(ref))))


class CountingGram(solver._Gram):
    """solver._Gram that logs, per store, each row it builds and, at that
    moment, the blocks it holds and the fit's nonzero count, and counts
    the slots it gives to a new row from a released one."""

    def __init__(self, m, v):
        super().__init__(m, v)
        self.built, self.most_blocks, self.most_support, self.reused = [], 0, 0, 0
        CountingGram.made.append(self)

    def _take_slot(self):
        used = self.used
        k = super()._take_slot()
        self.reused += self.used == used
        return k

    def __missing__(self, j):
        support = sum(c != 0.0 for c in self.fit)
        row = super().__missing__(j)
        self.built.append(j)
        self.most_blocks = max(self.most_blocks, len(self.blocks))
        self.most_support = max(self.most_support, support)
        return row

    @classmethod
    def watch(cls, monkeypatch) -> list:
        """Make every store of the solver one of these; the list fills
        with the stores made."""
        cls.made = []
        monkeypatch.setattr(solver, "_Gram", cls)
        return cls.made


class TestKernelMatchesReference:
    """solve's sweep against the plain numpy loop in oracles, which has the
    same update order and arithmetic but no polish. A fit without an
    accepted polish is bit-equal to it: beta, the sweep count and the
    convergence flag. A polished fit has the same flag and active set,
    beta within the golden comparator's bound, and no more sweeps; under a
    sweep cap it is compared with the uncapped reference, since the polish
    may finish a fit that plain sweeps leave unconverged at the cap."""

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

    @staticmethod
    def assert_matches(fit, beta, sweeps, converged, where) -> bool:
        """Assert the contract above; True where the fit was polished."""
        if fit.polish_accepts == 0:
            assert fit.beta.tobytes() == beta.tobytes(), where
            assert (fit.iterations, fit.converged) == (sweeps, converged), where
            return False
        assert fit.converged == converged, where
        assert fit.active_set == tuple(np.flatnonzero(beta)), where
        assert within_beta_bound(fit.beta, beta), where
        assert fit.iterations <= sweeps, where
        return True

    @pytest.mark.parametrize("pen", [lasso(), elastic_net(0.5), scad(), mcp(1.5)])
    def test_bit_equal_beta_sweeps_and_flag(self, pen, monkeypatch):
        # every fit also runs with every polish rejected, which must leave
        # the plain sweep bit-equal to the reference
        rng = np.random.default_rng(32)
        polish = solver._polish
        checked_long = False
        left_zero = False
        polished = 0
        for name, x, y in self.designs():
            scale = lambda_max(x, y)
            for frac in (0.0, 0.05, 0.3, 0.7):
                lam = frac * scale
                for init in (None, rng.uniform(-scale, scale, size=x.shape[1])):
                    for max_iter in (MAX_ITER, 70):
                        monkeypatch.setattr(solver, "MAX_ITER", max_iter)
                        visits = []
                        beta, sweeps, converged = oracles.coordinate_descent_reference(
                            x, y, lam, pen, init=init, max_iter=max_iter, visits=visits
                        )
                        where = (name, frac, init is None, max_iter)
                        monkeypatch.setattr(solver, "_polish", lambda *args: None)
                        plain = solve(x, y, lam, pen, init=init)
                        assert not self.assert_matches(plain, beta, sweeps, converged, where)
                        monkeypatch.setattr(solver, "_polish", polish)
                        fit = solve(x, y, lam, pen, init=init)
                        checked_long |= sweeps > 64
                        left_zero |= any(
                            old == 0.0 and abs(z) <= level and new != 0.0 for old, z, level, new in visits
                        )
                        if fit.polish_accepts and max_iter < MAX_ITER:
                            beta, sweeps, converged = oracles.coordinate_descent_reference(x, y, lam, pen, init=init)
                        polished += self.assert_matches(fit, beta, sweeps, converged, where)
        # the 64-sweep drift refresh is on the bit-compared path
        assert checked_long
        # and so is, for SCAD and MC+, a coordinate that left zero with
        # |z| <= lam / c_j: the nonconvex regime, where solve must not skip
        assert left_zero == (not pen.convex)
        # the polished branch is exercised for every penalty
        assert polished > 0

    def test_warm_started_wide_path(self, monkeypatch):
        # solve_path's fits share one Gram and start from the previous beta;
        # the reference chains its own betas, on a p > n design whose fits
        # run past the 64-sweep drift refresh. With every polish rejected
        # the path is the reference's bit for bit.
        rng = np.random.default_rng(33)
        x = rng.standard_normal((8, 24))
        y = x[:, :3] @ np.array([1.5, -2.0, 1.0]) + 0.5 * rng.standard_normal(8)
        top = lambda_max(x, y)
        grid = np.geomspace(top, 1e-3 * top, 20)
        fits = solve_path(x, y, grid, lasso())
        monkeypatch.setattr(solver, "_polish", lambda *args: None)
        plain = solve_path(x, y, grid, lasso())
        warm = None
        sweeps_seen = []
        polished = 0
        for lam, fit, unpolished in zip(grid, fits, plain):
            beta, sweeps, converged = oracles.coordinate_descent_reference(x, y, float(lam), lasso(), init=warm)
            assert not self.assert_matches(unpolished, beta, sweeps, converged, lam)
            polished += self.assert_matches(fit, beta, sweeps, converged, lam)
            sweeps_seen.append(sweeps)
            warm = beta
        assert max(sweeps_seen) > 64
        assert polished > 0

    @pytest.mark.parametrize("pen", [lasso(), mcp(1.5)])
    def test_wide_cold_start_whose_store_reuses_slots(self, pen, monkeypatch):
        # a 40 x 600 fit reads more rows than its one block has slots, so
        # rows of coordinates back at zero give up their slots; plain
        # sweeps stay the reference's bit for bit
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 600))
        y = x[:, :5] @ rng.uniform(1.0, 2.0, 5) + 0.5 * rng.standard_normal(40)
        lam = 0.1 * lambda_max(x, y)
        store = CountingGram.watch(monkeypatch)
        fit = solve(x, y, lam, pen)
        beta, sweeps, converged = oracles.coordinate_descent_reference(x, y, lam, pen)
        self.assert_matches(fit, beta, sweeps, converged, pen.kind)
        monkeypatch.setattr(solver, "_polish", lambda *args: None)
        plain = solve(x, y, lam, pen)
        assert not self.assert_matches(plain, beta, sweeps, converged, pen.kind)
        for gram in store:
            assert (gram.most_blocks, gram.reused > 0) == (1, True)


class TestPolish:
    """The exact cell solve (solve's polish)."""

    # The reference's active sets along the default grid of the 50 x 200
    # design below, and its 87,748 sweeps; it used up MAX_ITER at index 34.
    # Recorded from chained oracles.coordinate_descent_reference calls
    # (about 50 s) by deep_path_reference().
    DEEP_REFERENCE = "deep_path_reference.json"

    @staticmethod
    def deep_design():
        rng = np.random.default_rng(50200)
        x = rng.standard_normal((50, 200))
        y = x[:, :5] @ np.array([2.0, -1.5, 1.0, -0.5, 0.75]) + 0.5 * rng.standard_normal(50)
        top = lambda_max(x, y)
        return x, y, np.geomspace(top, 1e-4 * top, 50)

    @classmethod
    def deep_path_reference(cls) -> dict:
        x, y, grid = cls.deep_design()
        warm, record = None, {"active_sets": [], "sweeps": [], "converged": []}
        for lam in grid:
            warm, sweeps, converged = oracles.coordinate_descent_reference(x, y, float(lam), lasso(), init=warm)
            record["active_sets"].append(np.flatnonzero(warm).tolist())
            record["sweeps"].append(sweeps)
            record["converged"].append(converged)
        return record

    def test_deep_default_grid_path_in_a_few_sweeps_per_lambda(self):
        x, y, grid = self.deep_design()
        reference = json.loads((Path(__file__).parent / "golden" / self.DEEP_REFERENCE).read_text())
        fits = solve_path(x, y, grid, lasso())
        assert [list(f.active_set) for f in fits] == reference["active_sets"]
        assert all(f.converged and f.kkt_residual <= KKT_TOL for f in fits)
        assert sum(reference["sweeps"]) == 87_748
        # 293 sweeps, at most 12 at one lambda
        assert sum(f.iterations for f in fits) < 1_000
        assert max(f.iterations for f in fits) <= 50
        assert max(len(f.active_set) for f in fits) == x.shape[0]

    @pytest.mark.parametrize("pen", [lasso(), elastic_net(0.5)])
    def test_wide_fits_converge_where_the_support_reaches_n(self, pen):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((12, 40))
        y = x[:, :4] @ np.array([1.0, -2.0, 1.5, 0.5]) + 0.3 * rng.standard_normal(12)
        top = lambda_max(x, y)
        fits = solve_path(x, y, np.geomspace(top, 1e-4 * top, 50), pen)
        assert max(len(f.active_set) for f in fits) >= x.shape[0]
        assert sum(f.polish_accepts for f in fits) > 0
        for fit in fits:
            assert fit.converged
            assert recompute_kkt(x, y, fit) <= KKT_TOL

    def test_accepts_a_sign_keeping_lower_objective(self):
        x, y = tall_problem(seed=231, n=10, p=4)
        lam = 0.2 * lambda_max(x, y)
        exact = solve(x, y, lam, lasso()).beta
        near = exact + 1e-3 * np.sign(exact)
        polished = solver._polish(solver._Gram(x, y), lam, lasso(), near)
        assert polished is not None
        assert within_beta_bound(polished, exact)
        assert objective_value(x, y, lam, lasso(), polished) <= objective_value(x, y, lam, lasso(), near)

    def test_walks_to_the_first_zero_where_the_cell_optimum_flips_a_sign(self):
        x, y = tall_problem(seed=231, n=10, p=4)
        lam = 0.2 * lambda_max(x, y)
        gram, xty = x.T @ x, x.T @ y
        flipped = solve(x, y, lam, lasso()).beta
        flipped += 1e-3 * np.sign(flipped)
        j = np.flatnonzero(flipped)[1]
        flipped[j] *= -1
        # the cell optimum takes b_j back across zero, before any other
        # coordinate, at a point where plain arithmetic leaves it at -1e-17
        active = np.flatnonzero(flipped)
        optimum = np.linalg.solve(gram[np.ix_(active, active)], xty[active] - lam * np.sign(flipped[active]))
        times = flipped[active] / (flipped[active] - optimum)
        first = np.argmin(np.where(np.sign(optimum) != np.sign(flipped[active]), times, np.inf))
        assert active[first] == j
        assert flipped[j] + times[first] * (optimum[first] - flipped[j]) != 0.0
        polished = solver._polish(solver._Gram(x, y), lam, lasso(), flipped)
        assert polished is not None
        assert float(polished[j]).hex() == "0x0.0p+0"
        others = np.flatnonzero(polished)
        assert others.size > 0
        assert np.array_equal(np.sign(polished[others]), np.sign(flipped[others]))
        assert objective_value(x, y, lam, lasso(), polished) <= objective_value(x, y, lam, lasso(), flipped)

    def test_rejects_a_tie_at_the_boundary(self):
        # unit columns, so G = I and the cell optimum is y_A - lam * s_A:
        # (-1, -2, 0.5) from (1, 2, 1), where the first two coordinates
        # reach zero together, at t = 0.5 exactly
        x, y = np.eye(4)[:, :3], np.array([-0.5, -1.5, 1.0, 0.0])
        assert solver._polish(solver._Gram(x, y), 0.5, lasso(), np.array([1.0, 2.0, 1.0])) is None

    def test_gives_up_where_the_cell_solution_is_nan(self):
        # no coordinate walks toward zero along a NaN direction
        x, y = tall_problem(seed=231, n=10, p=4)
        gram = solver._Gram(x, y)
        gram.xty[0] = math.nan
        assert solver._polish(gram, 0.1, lasso(), np.ones(4)) is None

    def test_steps_off_a_singular_cell(self):
        # |A| = 6 > n = 3: the cell matrix has no Cholesky factor, and the
        # objective falls along its null space in the direction with s'd < 0
        x, y = tall_problem(seed=232, n=3, p=6)
        start = np.ones(6)
        polished = solver._polish(solver._Gram(x, y), 0.01, lasso(), start)
        assert polished is not None
        assert 0 < np.count_nonzero(polished) <= 3
        assert np.all(polished >= 0.0)
        assert objective_value(x, y, 0.01, lasso(), polished) < objective_value(x, y, 0.01, lasso(), start)

    def test_leaves_a_flat_cell_to_coordinate_descent(self, monkeypatch):
        # at lam = 0 a singular cell's minimisers form a flat set, which is
        # rejected before any eigendecomposition, and so they do where s is
        # orthogonal to the null space: two equal columns with coefficients
        # of one sign
        def eigh(cell):
            raise AssertionError("eigh called on a flat cell")

        x, y = tall_problem(seed=232, n=3, p=6)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", eigh)
            assert solver._polish(solver._Gram(x, y), 0.0, lasso(), np.ones(6)) is None
        x, y = tall_problem(seed=236, n=8, p=3)
        x = np.column_stack([x, x[:, 0]])
        assert solver._polish(solver._Gram(x, y), 0.1, lasso(), np.array([0.5, 0.3, -0.2, 0.5])) is None

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scad_walk_lands_on_each_breakpoint(self, sign, monkeypatch):
        # one unit column, so the cell solution of piece (c, l) is (z - lam *
        # l) / (1 + lam * c): 1.5 on the first piece and 5.295 on the
        # second, both beyond it, so the walk from 0.5 stops on 1 and then
        # on a, each time in the next piece, and ends at z on the third
        a, lam = 3.7, 0.5
        x, y = np.eye(3)[:, :1], sign * np.array([5.0, 1.0, 1.0])
        starts, cells = [], []
        np_sign, np_solve = np.sign, np.linalg.solve
        monkeypatch.setattr(np, "sign", lambda t: starts.append(t.copy()) or np_sign(t))
        monkeypatch.setattr(np.linalg, "solve", lambda cell, rhs: cells.append(float(cell[0, 0])) or np_solve(cell, rhs))
        polished = solver._polish(solver._Gram(x, y), lam, scad(a), np.array([sign * 0.5]))
        assert [float(t[0]) for t in starts] == [sign * 0.5, sign * 1.0, sign * a]
        assert cells == [1.0, 1.0 - lam / (a - 1.0), 1.0]
        assert polished.tolist() == [sign * 5.0]

    def test_walk_from_a_breakpoint_starts_in_the_lower_piece(self, monkeypatch):
        # the cell of the walk above, started on 1: the first pass solves
        # the first piece's cell, steps 0 to the breakpoint and moves on
        a, lam = 3.7, 0.5
        x, y = np.eye(3)[:, :1], np.array([5.0, 1.0, 1.0])
        cells = []
        np_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda cell, rhs: cells.append(float(cell[0, 0])) or np_solve(cell, rhs))
        polished = solver._polish(solver._Gram(x, y), lam, scad(a), np.array([1.0]))
        assert cells == [1.0, 1.0 - lam / (a - 1.0), 1.0]
        assert polished.tolist() == [5.0]

    @pytest.mark.parametrize("pen", [scad(), mcp()])
    def test_leaves_a_cell_without_a_cholesky_factor_to_coordinate_descent(self, pen, monkeypatch):
        # a unit column at lam above gamma and a - 1: the cell of b = 2,
        # 1 - lam / 2.7 on SCAD's middle piece or 1 - lam / 3 on MC+'s
        # first, is negative
        x, y = np.eye(3)[:, :1], np.array([2.0, 0.0, 0.0])
        assert solver._polish(solver._Gram(x, y), 4.0, pen, np.array([2.0])) is None
        # a singular cell (|A| > n) beyond every breakpoint has c = 0, as the
        # Lasso's has, so it is convex and eigendecomposed like the Lasso's;
        # l = 0 there too, so the objective is flat along the null space,
        # and the cell is left to coordinate descent
        x, y = tall_problem(seed=232, n=3, p=6)
        gram = solver._Gram(x, y)
        assert solver._polish(gram, 0.01, lasso(), np.full(6, 5.0)) is not None
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda cell: shapes.append(cell.shape) or eigh(cell))
        assert solver._polish(gram, 0.01, pen, np.full(6, 5.0)) is None
        assert shapes == [(6, 6)]
        # where some c < 0, on SCAD's middle piece or MC+'s first, the cell
        # can be concave, and it is not walked at all
        monkeypatch.setattr(np.linalg, "eigh", lambda cell: pytest.fail("eigh called"))
        assert solver._polish(gram, 0.01, pen, np.full(6, 2.0)) is None

    def test_walks_a_convex_scad_cell_past_its_first_breakpoint(self, monkeypatch):
        # |A| = 6 > n = 3, three coefficients beyond a (c = 0, l = 0) and
        # three on the first piece (c = 0, l = 1): the cell is convex and
        # singular, the objective falls along its null space where (s * l)'d
        # < 0, and the walk ends at a lower point that the polish keeps
        x, y = tall_problem(seed=232, n=3, p=6)
        start = np.array([50.0, 0.05, 50.0, 0.05, 50.0, 0.05])
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda cell: shapes.append(cell.shape) or eigh(cell))
        polished = solver._polish(solver._Gram(x, y), 0.1, scad(), start)
        assert polished is not None
        assert shapes[0] == (6, 6)
        assert objective_value(x, y, 0.1, scad(), polished) < objective_value(x, y, 0.1, scad(), start)

    @pytest.mark.parametrize(
        "pen, start",
        [(lasso(), np.full(6, 5.0)), (scad(), np.full(6, 2.0)), (scad(), np.full(6, 5.0)), (mcp(), np.full(6, 2.0)),
         (mcp(), np.full(6, 5.0)), (scad(), np.array([50.0, 0.05, 50.0, 0.05, 50.0, 0.05]))],
        ids=["lasso", "scad-middle", "scad-beyond", "mcp-first", "mcp-beyond", "scad-mixed"],
    )
    def test_no_cholesky_on_a_cell_wider_than_n_without_positive_curvature(self, pen, start, monkeypatch):
        # with |A| > n and every lam * c <= 0 the cell has no factor, however
        # rounding would come out; cells of at most n coordinates still try
        x, y = tall_problem(seed=232, n=3, p=6)
        cholesky = np.linalg.cholesky

        def narrow_only(cell):
            assert cell.shape[0] <= 3, "cholesky called on a cell wider than n"
            return cholesky(cell)

        monkeypatch.setattr(np.linalg, "cholesky", narrow_only)
        solver._polish(solver._Gram(x, y), 0.1, pen, start)
        fits = solve_path(x, y, np.geomspace(lambda_max(x, y), 1e-3, 20), pen)
        assert all(f.converged for f in fits)

    def test_support_product(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((6, 9))
        gram = solver._Gram(x, np.zeros(6))
        zero = solver._gram_times(gram, np.zeros(9))
        assert zero.tobytes() == np.zeros(9).tobytes()
        beta = np.zeros(9)
        beta[[1, 4, 7]] = rng.standard_normal(3)
        assert np.allclose(solver._gram_times(gram, beta), x.T @ x @ beta, rtol=1e-14, atol=1e-14)
        # only the rows of beta's support were built
        assert len(gram) == 3
        beta[4] = math.nan
        assert np.isnan(solver._gram_times(gram, beta)).all()

    def test_rejects_a_point_whose_objective_rises(self, monkeypatch):
        # sign-keeping cell optima lower the true objective up to rounding,
        # so the rule is checked against an objective that prefers larger |b|
        x, y = tall_problem(seed=231, n=10, p=4)
        lam = 0.2 * lambda_max(x, y)
        exact = solve(x, y, lam, lasso()).beta
        near = exact + 1e-3 * np.sign(exact)
        monkeypatch.setattr(solver, "objective_value", lambda x, y, lam, pen, b: -float(np.sum(np.abs(b))))
        assert solver._polish(solver._Gram(x, y), lam, lasso(), near) is None

    def test_waits_for_sweeps_without_a_crossing(self, monkeypatch):
        # with every polish rejected the sweep is the reference's, whose
        # visits show the sweep at which no coordinate has moved to, from
        # or across zero for 2 sweeps in a row; the next attempt waits for
        # a crossing, however long the quiet run lasts
        rng = np.random.default_rng(35)
        x = rng.standard_normal((8, 24))
        y = x[:, :3] @ np.array([1.5, -2.0, 1.0]) + 0.5 * rng.standard_normal(8)
        lam = 0.01 * lambda_max(x, y)
        attempts = []
        monkeypatch.setattr(solver, "_polish", lambda *args: attempts.append(args[-1].tobytes()))
        fit = solve(x, y, lam, lasso())
        visits = []
        beta, sweeps, converged = oracles.coordinate_descent_reference(x, y, lam, lasso(), visits=visits)
        assert fit.beta.tobytes() == beta.tobytes()
        assert (fit.iterations, fit.converged, fit.polish_accepts) == (sweeps, converged, 0)
        after, expected, stable, longest = [], [], 0, 0
        for start in range(0, len(visits), 24):
            sweep = visits[start:start + 24]
            after.append(np.array([new for _, _, _, new in sweep]).tobytes())
            crossed = any(old * new <= 0.0 and old != new for old, _, _, new in sweep)
            stable = 0 if crossed else stable + 1
            longest = max(longest, stable)
            if stable == 2:
                expected.append(len(after))
        # every sweep leaves a distinct beta, so each attempt names its sweep
        assert len(set(after)) == len(after) == sweeps
        assert [after.index(b) + 1 for b in attempts] == expected
        assert len(expected) > 3 and expected[0] > 2
        # a quiet run long enough that a retry schedule would show
        assert longest > 1_000

    def test_polishes_a_scaled_fit_once(self):
        # on data scaled by 1e9 the absolute KKT_TOL is out of reach of
        # rounding (the refreshed residual is 1.3e-4), but not the floor p *
        # eps * ||X'Y||_inf, 3.1e-4: the fit converges after its one
        # accepted polish instead of sweeping on to MAX_ITER
        x, y = tall_problem(seed=0, n=100, p=10)
        lam = 0.1 * lambda_max(x, y)
        fit = solve(x, y * 1e9, lam * 1e9, lasso())
        assert (fit.iterations, fit.converged, fit.polish_accepts) == (8, True, 1)
        assert KKT_TOL < fit.kkt_residual < 10 * np.finfo(float).eps * np.max(np.abs(x.T @ y * 1e9))


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


class TestGramStore:
    """X'X through solver._Gram: where p > n, row j is built on its first
    read as X'x_j alone, so its bits are the same whichever rows were
    built before it, and are the same again when a released row is built
    once more; the store holds the rows of the fit's nonzeros, released
    rows until their slots are taken, and no block it does not need."""

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        p=st.integers(7, 300),
        rounds=st.lists(st.tuples(st.integers(0, 150), st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=6),
    )
    def test_rows_keep_their_bits_through_releases_reuses_and_packs(self, seed, n, p, rounds):
        # as in a fit: a row is read for a coordinate made nonzero, and
        # released when its coordinate goes back to zero; each round reads
        # rows, releases a share of the nonzeros, may pack, and gathers
        # the nonzeros' rows and cell
        x, y = tall_problem(seed=seed, n=n, p=p)
        rng = np.random.default_rng(seed)
        gram = solver._Gram(x, y)
        fit = gram.fit
        for reads, share, pack in rounds:
            for j in rng.integers(0, p, size=reads).tolist():
                fit[j] = 1.0
                assert gram[j].tobytes() == (x.T @ x[:, j]).tobytes()
            nonzero = np.flatnonzero(fit)
            for j in nonzero[rng.random(nonzero.size) < share].tolist():
                fit[j] = 0.0
                gram.release(j)
            if pack:
                gram.pack()
            nonzero = np.flatnonzero(fit)
            stacked = gram.rows(nonzero)
            assert stacked.tobytes() == np.array([x.T @ x[:, k] for k in nonzero]).reshape(-1, p).tobytes()
            assert gram.cell(nonzero).tobytes() == stacked[:, nonzero].tobytes()
            # every nonzero's row is held, each held row has its own slot
            # below ``used``, and the blocks are the fewest that hold them
            held = np.flatnonzero(gram.slot >= 0)
            assert set(nonzero) <= set(held) == set(gram)
            assert sorted(gram.slot[held]) == list(range(gram.used))
            assert len(gram.blocks) == -(-gram.used // 64)
            for j in held.tolist():
                assert gram[j].tobytes() == (x.T @ x[:, j]).tobytes()

    def test_a_store_reuses_packs_and_builds_again(self):
        x, y = tall_problem(seed=39, n=5, p=300)
        gram = solver._Gram(x, y)
        fit = gram.fit
        for j in range(130):  # three blocks
            fit[j] = 1.0
            gram[j]
        assert (len(gram.blocks), gram.used) == (3, 130)
        for j in range(100):
            fit[j] = 0.0
            gram.release(j)
        for j in range(130, 192):  # the last block has room
            fit[j] = 1.0
            gram[j]
        assert (len(gram.blocks), gram.used, len(gram)) == (3, 192, 192)
        for j in range(192, 242):  # then the oldest released slots
            fit[j] = 1.0
            gram[j]
        assert (len(gram.blocks), gram.used, len(gram)) == (3, 192, 192)
        assert 49 not in gram and 50 in gram and gram.slot[192] == 0
        for j in range(100, 120):  # released, then nonzero again
            fit[j] = 0.0
            gram.release(j)
            fit[j] = 1.0
        gram.pack()  # 50 of 70 released rows still zero: too few
        assert (len(gram.blocks), gram.used, len(gram)) == (3, 192, 192)
        for j in range(150, 170):
            fit[j] = 0.0
            gram.release(j)
        gram.pack()  # 70: the 122 rows of nonzeros fit in two blocks
        assert (len(gram.blocks), gram.used, len(gram)) == (2, 122, 122)
        # in slot order: 192-241 in the slots of 0-49, then 100-149 and 170-191
        assert [int(gram.slot[j]) for j in (192, 241, 100, 149, 170, 191)] == [0, 49, 50, 99, 100, 121]
        fit[0] = 1.0  # built again, in the next free slot
        assert gram[0].tobytes() == (x.T @ x[:, 0]).tobytes()
        assert (len(gram.blocks), gram.used, int(gram.slot[0])) == (2, 123, 122)
        kept = np.flatnonzero(fit)
        assert gram.rows(kept).tobytes() == np.array([x.T @ x[:, k] for k in kept]).tobytes()
        assert gram.cell(kept).tobytes() == (np.array([x.T @ x[:, k] for k in kept])[:, kept]).tobytes()

    @pytest.mark.parametrize("n, p", [(12, 5), (5, 12), (5, 200)])
    def test_a_cell_is_the_rows_at_its_columns(self, n, p):
        x, y = tall_problem(seed=42, n=n, p=p)
        gram = solver._Gram(x, y)
        idx = np.array([p - 1, 0, 3])
        assert gram.cell(idx).tobytes() == gram.rows(idx)[:, idx].tobytes()

    def test_one_block_is_never_packed(self):
        x, y = tall_problem(seed=41, n=5, p=100)
        gram = solver._Gram(x, y)
        for j in range(64):
            gram.fit[j] = 1.0
            gram[j]
        for j in range(64):
            gram.fit[j] = 0.0
            gram.release(j)
        gram.pack()
        assert (len(gram.blocks), gram.used, len(gram)) == (1, 64, 64)

    def test_a_store_that_fits_in_one_block_builds_no_row_twice(self, monkeypatch):
        # verify's p <= 36 designs and a 12 x 64 one, through paths and
        # dense multistart starts, as the MC+ path of bench wide_path
        # reads its 64 rows
        designs = [wide_problems(seed)[:2] for seed in range(4)]
        rng = np.random.default_rng(40)
        x = rng.standard_normal((12, 64))
        designs.append((x, x[:, :3] @ np.array([2.0, -1.0, 1.5]) + 0.3 * rng.standard_normal(12)))
        store = CountingGram.watch(monkeypatch)
        for x, y in designs:
            top = lambda_max(x, y)
            for pen in (lasso(), mcp(1.5)):
                solve_path(x, y, np.geomspace(top, 1e-3 * top, 30), pen)
                multistart_local_minima(x, y, 0.1 * top, pen, 6)
        assert len(store) == 2 * 2 * len(designs)
        for gram in store:
            assert gram.most_blocks == 1
            assert len(gram.built) == len(set(gram.built))
            # every row held for a zero coordinate, by a sweep or a polish, is released
            assert {j for j in gram if gram.fit[j] == 0.0} <= set(gram.released)
        assert max(len(gram.built) for gram in store) == 64

    @pytest.mark.parametrize("argv", [["fit", "--lambda", "1.7"], ["path"]])
    @pytest.mark.parametrize("pen", ["lasso", "mcp"])
    def test_the_wider_goldens_reach_released_slots(self, argv, pen, monkeypatch, capsys):
        # the golden cases on wider.csv hold more than one block, and
        # give released rows' slots to new rows
        from puffer_lasso.cli import main

        store = CountingGram.watch(monkeypatch)
        wider = Path(__file__).parent / "golden" / "wider.csv"
        assert main([*argv, "--input", str(wider), "--response", "y", "--penalty", pen]) == 0
        capsys.readouterr()
        (gram,) = store
        assert gram.most_blocks > 1 and gram.reused > 0

    def test_blocks_are_bounded_by_the_largest_support(self, monkeypatch):
        # the blocks a puffer_tau fit holds are bounded by the most
        # nonzeros it has at once, not by the rows it reads: it reads 388
        # distinct rows, which would take 7 blocks, where the support
        # needs 5
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 2000))
        signal = np.zeros(2000)
        signal[:20] = rng.uniform(0.5, 2.0, 20) * rng.choice([-1.0, 1.0], 20)
        pair = puffer_tau(x, x @ signal + 0.5 * rng.standard_normal(200), 1.0)
        store = CountingGram.watch(monkeypatch)
        fit = solve(pair.x_tilde, pair.y_tilde, 0.05 * lambda_max(pair.x_tilde, pair.y_tilde), lasso())
        (gram,) = store
        assert fit.converged
        assert gram.most_blocks <= math.ceil((gram.most_support + 1) / 64) == 5
        assert math.ceil(len(set(gram.built)) / 64) > 5
        # the refreshes packed: the fit ends on fewer blocks than it held
        assert len(gram.blocks) < gram.most_blocks

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 8), extra=st.integers(1, 150), data=st.data())
    def test_a_row_has_the_same_bits_whatever_was_built_before(self, seed, n, extra, data):
        p = n + extra
        x, y = tall_problem(seed=seed, n=n, p=p)
        j = data.draw(st.integers(0, p - 1))
        alone = solver._Gram(x, y)[j].copy()
        order = data.draw(st.permutations(range(p)))
        cut = data.draw(st.integers(0, p))
        gram = solver._Gram(x, y)
        gram.rows(np.array(order[:cut], dtype=int))  # one batch, then one row at a time
        for k in order[cut:]:
            gram[k]
        assert gram[j].tobytes() == alone.tobytes() == (x.T @ x[:, j]).tobytes()
        assert gram.rows(np.array([j]))[0].tobytes() == alone.tobytes()
        # a gather over blocks of 64 rows keeps the order it is asked for
        stacked = gram.rows(np.array(order))
        assert stacked.tobytes() == np.array([x.T @ x[:, k] for k in order]).tobytes()
        assert np.allclose(stacked, (x.T @ x)[order], rtol=1e-12, atol=1e-12)
        assert gram.diag.tobytes() == np.einsum("ij,ij->j", x, x).tobytes()

    def test_a_row_that_leaves_float64_raises_as_it_is_built(self):
        # |X'X| entries are bounded by the diagonal, but their rounding is
        # not: this design's diagonal (one einsum) is finite, yet on the
        # recorded stack its row 0, built as X'x_0, rounds to inf
        col = np.array([3.3005897743530503e153, 7.645460544004469e153, 7.635212482916621e153, 7.219825762333378e153])
        x = np.column_stack([col, col[::-1], np.zeros((4, 3))])
        gram = solver._Gram(x, np.ones(4))
        assert np.isfinite(gram.diag).all()
        for j in range(2):
            with np.errstate(over="ignore"):
                built = x.T @ x[:, j]
            if np.isfinite(built).all():
                assert gram[j].tobytes() == built.tobytes()
            else:
                with pytest.raises(NumericalError, match="X'X overflows float64"):
                    gram[j]

    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 2**16), pen=st.sampled_from([scad(), mcp(1.5)]), frac=st.floats(0.05, 0.6))
    def test_multistart_equals_single_solves_from_its_starts(self, seed, pen, frac):
        # multistart builds rows in the order its first start reads them; a
        # single solve from a later start builds them in its own order
        x, y = tall_problem(seed=seed, n=6, p=15)
        scale = lambda_max(x, y)
        lam = frac * scale
        fits = multistart_local_minima(x, y, lam, pen, 4)
        rng = np.random.default_rng(0)
        refs = []
        for _ in range(4):
            ref = solve(x, y, lam, pen, init=rng.uniform(-scale, scale, size=15))
            if all(np.max(np.abs(ref.beta - r.beta)) > solver.DISTINCT_TOL for r in refs):
                refs.append(ref)
        refs.sort(key=lambda f: (f.objective, tuple(f.beta)))
        assert len(fits) == len(refs)
        for fit, ref in zip(fits, refs):
            TestSharedGram.assert_same(fit, ref, seed)

    def test_a_wide_path_holds_only_the_rows_it_reads(self):
        # a 30 x 3000 design, whose full X'X would take 72 MB
        rng = np.random.default_rng(38)
        x = rng.standard_normal((30, 3000))
        y = x[:, :4] @ np.array([2.0, -1.5, 1.0, 0.5]) + 0.3 * rng.standard_normal(30)
        top = lambda_max(x, y)
        tracemalloc.start()
        try:
            fits = solve_path(x, y, np.geomspace(top, 0.05 * top, 8), lasso())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(f.converged for f in fits)
        assert peak < 10e6


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
