import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import penalties
from puffer_lasso.penalties import (
    PenaltySpec,
    elastic_net,
    lasso,
    mcp,
    pen_derivative,
    pen_value,
    scad,
    soft_threshold,
    univariate_threshold,
)

import oracles

ALL_KINDS = [lasso(), elastic_net(0.5), scad(), mcp()]
CONCAVE_KINDS = [lasso(), scad(), mcp()]

finite_reals = st.floats(-50, 50, allow_nan=False)
lams = st.floats(0, 20, allow_nan=False)


def scalar_objective(pen, z, lam, b):
    return 0.5 * (z - b) ** 2 + lam * pen_value(pen, b)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PenaltySpec("ridge")

    @pytest.mark.parametrize(
        "kind,param", [("elastic_net", 0.0), ("elastic_net", 1.5), ("scad", 2.0), ("mcp", 1.0)]
    )
    def test_bad_shape_parameters(self, kind, param):
        with pytest.raises(ValueError):
            PenaltySpec(kind, param)

    def test_convexity_flags(self):
        assert lasso().convex and elastic_net(0.5).convex
        assert not scad().convex and not mcp().convex


class TestSoftThreshold:
    def test_basic(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-3.0, 1.0) == -2.0

    @given(finite_reals)
    def test_identity_at_zero_lambda(self, x):
        assert soft_threshold(x, 0.0) == x

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @given(st.integers(0, 10**6))
    def test_elementwise_commutes_with_permutation(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(8)
        perm = rng.permutation(8)
        thresholded = np.array([soft_threshold(t, 0.7) for t in v])
        permuted = np.array([soft_threshold(t, 0.7) for t in v[perm]])
        assert np.array_equal(thresholded[perm], permuted)


class TestPenValue:
    def test_lasso_absolute_value(self):
        assert pen_value(lasso(), -2.0) == 2.0

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_vanishes_at_zero(self, pen):
        assert pen_value(pen, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.5, 2.0, 5.0])
    def test_scad_value_integrates_derivative(self, x):
        pen = scad(3.7)
        integral = oracles.simpson(lambda t: pen_derivative(pen, t) if t != 0 else 1.0, 0.0, x)
        assert abs(pen_value(pen, x) - integral) <= 1e-8

    @pytest.mark.parametrize("x", [0.5, 2.0, 5.0])
    def test_mcp_value_integrates_derivative(self, x):
        pen = mcp(3.0)
        integral = oracles.simpson(lambda t: pen_derivative(pen, t) if t != 0 else 1.0, 0.0, x)
        assert abs(pen_value(pen, x) - integral) <= 1e-8

    @pytest.mark.parametrize("pen", ALL_KINDS)
    @settings(max_examples=60)
    @given(a=finite_reals)
    def test_symmetric(self, pen, a):
        assert pen_value(pen, a) == pytest.approx(pen_value(pen, -a), abs=0)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    @settings(max_examples=60)
    @given(a=finite_reals, b=finite_reals)
    def test_monotone_in_magnitude(self, pen, a, b):
        if abs(a) > abs(b):
            assert pen_value(pen, a) >= pen_value(pen, b)


class TestPenDerivative:
    def test_lasso_sign(self):
        assert pen_derivative(lasso(), 5.0) == 1.0
        assert pen_derivative(lasso(), -5.0) == -1.0

    def test_mcp_vanishes_beyond_gamma(self):
        pen = mcp(3.0)
        assert pen_derivative(pen, 3.0) == 0.0
        assert pen_derivative(pen, 4.5) == 0.0
        assert pen_derivative(pen, -10.0) == 0.0

    def test_scad_matches_finite_difference(self):
        pen = scad(3.7)
        fd = oracles.central_difference(lambda t: pen_value(pen, t), 0.3, h=1e-6)
        assert abs(pen_derivative(pen, 0.3) - fd) <= 1e-5

    @pytest.mark.parametrize("pen", ALL_KINDS)
    @pytest.mark.parametrize("x", [0.05, 0.7, 1.5, 3.0, 6.0])
    def test_matches_finite_difference_everywhere(self, pen, x):
        fd = oracles.central_difference(lambda t: pen_value(pen, t), x, h=1e-7)
        assert abs(pen_derivative(pen, x) - fd) <= 1e-5

    def test_non_differentiable_at_zero(self):
        for pen in ALL_KINDS:
            with pytest.raises(ValueError):
                pen_derivative(pen, 0.0)

    @pytest.mark.parametrize("pen", CONCAVE_KINDS)
    @settings(max_examples=60)
    @given(x=st.floats(1e-8, 50))
    def test_bounded_by_one_for_concave(self, pen, x):
        assert abs(pen_derivative(pen, x)) <= 1.0

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_unit_derivative_near_zero(self, pen):
        # approaching the kink from either side the slope magnitude is 1
        assert abs(abs(pen_derivative(pen, 1e-6)) - 1.0) <= 1e-3
        assert abs(abs(pen_derivative(pen, -1e-6)) - 1.0) <= 1e-3


class TestUnivariateThreshold:
    def test_lasso_reduces_to_soft(self):
        assert univariate_threshold(lasso(), 3.0, 1.0) == 2.0

    @pytest.mark.parametrize("pen", ALL_KINDS)
    @given(z=finite_reals)
    @settings(max_examples=40)
    def test_no_penalty_returns_input(self, pen, z):
        assert univariate_threshold(pen, z, 0.0) == z

    def test_elastic_net_closed_form(self):
        pen = elastic_net(0.8)
        z, lam = 3.0, 1.0
        assert univariate_threshold(pen, z, lam) == pytest.approx(
            soft_threshold(z, lam) / (1 + lam * 0.8), abs=0
        )

    @pytest.mark.parametrize("pen", [scad(3.7), mcp(3.0), mcp(1.5), scad(2.5)])
    @pytest.mark.parametrize("z", [0.2, 0.9, 1.7, 2.6, 4.1, 7.0])
    @pytest.mark.parametrize("lam", [0.1, 0.7, 1.3, 2.9])
    def test_matches_grid_search_oracle(self, pen, z, lam):
        b = univariate_threshold(pen, z, lam)
        lo, hi = -abs(z) - 1.0, abs(z) + 1.0
        b_grid = oracles.grid_minimizer(lambda t: scalar_objective(pen, z, lam, t), lo, hi)
        assert scalar_objective(pen, z, lam, b) <= scalar_objective(pen, z, lam, b_grid) + 1e-9
        assert abs(b - b_grid) <= 1e-3

    @pytest.mark.parametrize("pen", ALL_KINDS)
    @settings(max_examples=50, deadline=None)
    @given(z=finite_reals, lam=lams)
    def test_odd_in_z(self, pen, z, lam):
        assert univariate_threshold(pen, -z, lam) == -univariate_threshold(pen, z, lam)

    @pytest.mark.parametrize("pen", CONCAVE_KINDS)
    @settings(max_examples=50)
    @given(z=finite_reals, lam=lams)
    def test_never_expands_for_concave(self, pen, z, lam):
        assert abs(univariate_threshold(pen, z, lam)) <= abs(z)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_beats_ten_thousand_probes(self, pen):
        rng = np.random.default_rng(3)
        for z, lam in [(0.3, 0.5), (1.2, 0.4), (2.5, 1.1), (-4.0, 2.0)]:
            b = univariate_threshold(pen, z, lam)
            f_star = scalar_objective(pen, z, lam, b)
            probes = rng.uniform(-abs(z) - 2, abs(z) + 2, size=10_000)
            values = [scalar_objective(pen, z, lam, t) for t in probes]
            assert f_star <= min(values) + 1e-12

    @pytest.mark.parametrize("pen", ALL_KINDS)
    @settings(max_examples=80, deadline=None)
    @given(z=finite_reals, lam=st.floats(1e-3, 20))
    def test_first_order_condition_when_active(self, pen, z, lam):
        b = univariate_threshold(pen, z, lam)
        if b != 0.0:
            assert abs((b - z) + lam * pen_derivative(pen, b)) <= 1e-8

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            univariate_threshold(scad(), 1.0, -1.0)

    @pytest.mark.parametrize("pen", [scad(2.5), scad(3.7), mcp(1.5), mcp(3.0)])
    def test_matches_candidate_enumeration(self, pen):
        # The closed forms against the candidate enumeration they replaced.
        # Near a breakpoint (a z where two candidates tie) the enumeration's
        # float comparison can pick the other candidate. Both answers are
        # then minimizers to rounding, and the gap in b grows with the
        # offset times the firm-threshold slope gamma/(gamma - lam), so:
        # every draw must reach the enumeration's objective; draws within
        # 1e-12 relative of a breakpoint must also agree in b to 1e-9 (1 + |z|);
        # draws at least 1e-6 relative from every breakpoint must be bit-equal.
        rng = np.random.default_rng(20)
        shape = pen.param
        lams = [*rng.uniform(0.02, 8.0, size=12), shape - 1.0 if pen.kind == "scad" else shape]
        for lam in lams:
            if pen.kind == "scad":
                points = [lam, 1.0 + lam, shape, math.sqrt(lam * (shape + 1.0)), 0.5 * (shape + 1.0 + lam)]
            else:
                points = [lam, shape, math.sqrt(lam * shape)]
            draws = [(z, "away") for z in rng.uniform(0.0, 1.5 * max(points), size=40)]
            for point in points:
                sides = rng.choice([-1.0, 1.0], size=14)
                offsets = [0.0, *10.0 ** rng.uniform(-16, -12, 5), *10.0 ** rng.uniform(-12, -6, 4)]
                offsets += list(10.0 ** rng.uniform(-6, -2, 4))
                for side, offset in zip(sides, offsets):
                    band = "tie" if offset <= 1e-12 else "near" if offset < 1e-6 else "away"
                    draws.append((point * (1.0 + side * offset), band))
            for z, band in draws:
                if band == "away" and min(abs(z - t) / t for t in points) < 1e-6:
                    band = "near"
                z = z if rng.random() < 0.5 else -z
                b = univariate_threshold(pen, z, lam)
                ref = oracles.threshold_by_enumeration(pen, z, lam)
                where = (pen, z, lam, b, ref)
                if band == "away":
                    assert b.hex() == ref.hex(), where
                    continue
                slack = 1e-12 * (1.0 + z * z)
                assert scalar_objective(pen, z, lam, b) <= scalar_objective(pen, z, lam, ref) + slack, where
                if band == "tie":
                    assert abs(b - ref) <= 1e-9 * (1.0 + abs(z)), where

    def test_nonconvex_map_is_not_zero_below_lambda(self):
        # why solve skips a zero coordinate with |z| <= lam only where
        # zero_within_level holds: past MC+'s gamma or SCAD's a - 1 the
        # scalar minimizer can be z itself
        assert univariate_threshold(mcp(1.5), 1.9, 2.0) == 1.9
        assert univariate_threshold(scad(), 9.0, 10.0) == 9.0
        assert not penalties.zero_within_level(mcp(1.5), 2.0)
        assert not penalties.zero_within_level(scad(), 10.0)
        assert penalties.zero_within_level(mcp(1.5), 1.4)
        assert penalties.zero_within_level(scad(), 2.6)

    @pytest.mark.parametrize("pen", [*ALL_KINDS, scad(2.5), mcp(1.5)])
    @settings(max_examples=60, deadline=None)
    @given(lam=lams, frac=st.floats(-1, 1))
    def test_zero_within_level(self, pen, lam, frac):
        if penalties.zero_within_level(pen, lam):
            assert univariate_threshold(pen, frac * lam, lam) == 0.0
            assert univariate_threshold(pen, math.copysign(lam, frac), lam) == 0.0

    def test_exact_tie_resolves_to_smaller_magnitude(self):
        # mcp(gamma=2), lam=2, z=2: the objective at b=0 and b=2 is exactly
        # 2.0 in floats; the tie must go to the smaller-magnitude solution
        pen = mcp(2.0)
        assert scalar_objective(pen, 2.0, 2.0, 0.0) == scalar_objective(pen, 2.0, 2.0, 2.0)
        assert univariate_threshold(pen, 2.0, 2.0) == 0.0
        assert univariate_threshold(pen, -2.0, 2.0) == 0.0
