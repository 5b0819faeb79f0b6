import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso.penalties import (
    KINDS,
    PenaltySpec,
    elastic_net,
    lasso,
    mcp,
    pen_derivative,
    pen_value,
    scad,
    threshold_map,
    univariate_threshold,
)
from puffer_lasso.solver import solve

import oracles

ALL_KINDS = [lasso(), elastic_net(0.5), scad(), mcp()]
CONCAVE_KINDS = [lasso(), scad(), mcp()]

finite_reals = st.floats(-50, 50, allow_nan=False)
lams = st.floats(0, 20, allow_nan=False)


# the smallest and the largest subnormal float
SUBNORMALS = (5e-324, 2.225073858507201e-308)


def convexity_edge(pen) -> float:
    """The level past which the scalar objective is not convex: MC+'s gamma
    and SCAD's a - 1; 1.0 for the convex penalties, which have none."""
    return {"mcp": pen.param, "scad": pen.param - 1.0}.get(pen.kind, 1.0)


def special_levels(pen):
    edge = convexity_edge(pen)
    return [0.0, *SUBNORMALS, math.inf, edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]


def special_zs(level):
    return [v for t in (0.0, level, 1.0, *SUBNORMALS) for v in (t, -t)]


@st.composite
def map_arguments(draw, pen):
    """(z, level) that reach every branch of the map: the special values,
    levels on both sides of the convexity edge and z across every piece."""
    edge = convexity_edge(pen)
    level = draw(st.one_of(st.sampled_from(special_levels(pen)), st.floats(0.0, 3.0 * edge), st.floats(0.0)))
    z = draw(st.one_of(st.sampled_from(special_zs(level)), st.floats(-20.0, 20.0), st.floats(allow_nan=False)))
    return z, level


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "kind,name", [("lasso", "lasso param"), ("elastic_net", "elastic_net alpha")], ids=["lasso", "elastic_net"]
    )
    def test_rejects_nonfinite_param(self, kind, name, value):
        # the lasso ignores its param, and a NaN alpha used to fail the range
        # check as "must be in (0, 1]"; scad and mcp are in test_estimators
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            PenaltySpec(kind, value)

    def test_convexity_flags(self):
        assert lasso().convex and elastic_net(0.5).convex
        assert not scad().convex and not mcp().convex


class TestSoftThreshold:
    """The Lasso's map sign(z) * (|z| - lam)+, through univariate_threshold."""

    def test_basic(self):
        assert univariate_threshold(lasso(), 3.0, 1.0) == 2.0
        assert univariate_threshold(lasso(), -0.5, 1.0) == 0.0
        assert univariate_threshold(lasso(), -3.0, 1.0) == -2.0

    @given(finite_reals)
    def test_identity_at_zero_lambda(self, x):
        assert univariate_threshold(lasso(), x, 0.0) == x

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match=r"^lambda must be nonnegative, got -0\.1$"):
            univariate_threshold(lasso(), 1.0, -0.1)

    @given(st.integers(0, 10**6))
    def test_elementwise_commutes_with_permutation(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(8)
        perm = rng.permutation(8)
        thresholded = np.array([univariate_threshold(lasso(), t, 0.7) for t in v])
        permuted = np.array([univariate_threshold(lasso(), t, 0.7) for t in v[perm]])
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


@st.composite
def specs(draw):
    """A penalty of any kind, with a random shape parameter."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "lasso":
        return lasso()
    low, high = {"elastic_net": (0.0, 1.0), "scad": (2.0, 12.0), "mcp": (1.0, 12.0)}[kind]
    return PenaltySpec(kind, draw(st.floats(low, high, exclude_min=True)))


def piece_value(row, t):
    c, l, v = row
    return 0.5 * c * t * t + l * t + v


class TestPieceTable:
    @settings(max_examples=400, deadline=None)
    @given(pen=specs(), data=st.data())
    def test_matches_per_kind_formulas(self, pen, data):
        # the table's value and slope against the formulas it replaced,
        # on every piece and at every breakpoint and its neighbours
        top = max(pen.breakpoints, default=1.0)
        edges = [math.nextafter(b, toward) for b in pen.breakpoints for toward in (0.0, math.inf)]
        magnitude = data.draw(st.one_of(st.floats(0.0, 2.0 * top), st.sampled_from([0.0, *pen.breakpoints, *edges])))
        x = data.draw(st.sampled_from([-1.0, 1.0])) * magnitude
        # Each side rounds on its own: on SCAD's middle piece the table's
        # value is up to 2.9 eps (relative to max(1, |pen|)) from the exact
        # one and the formula's up to 1.9 eps, and they differ by up to 4.1
        # eps over 600k draws of a in (2, 50), so the bound is 8 eps.
        eps = np.finfo(float).eps
        ref = oracles.pen_value_reference(pen, x)
        assert abs(pen_value(pen, x) - ref) <= 8 * eps * max(1.0, abs(ref)), (pen, x)
        if x != 0.0:
            ref = oracles.pen_derivative_reference(pen, x)
            assert abs(pen_derivative(pen, x) - ref) <= 8 * eps * max(1.0, abs(ref)), (pen, x)

    @settings(max_examples=200, deadline=None)
    @given(pen=specs())
    def test_continuous_at_breakpoints(self, pen):
        # both pieces that meet at a breakpoint give its pen and pen'
        assert len(pen.pieces) == len(pen.breakpoints) + 1
        eps = np.finfo(float).eps
        for k, t in enumerate(pen.breakpoints):
            below, above = pen.pieces[k], pen.pieces[k + 1]
            value = piece_value(below, t)
            assert abs(piece_value(above, t) - value) <= 4 * eps * max(1.0, value), (pen, t)
            slope = below[0] * t + below[1]
            assert abs(above[0] * t + above[1] - slope) <= 4 * eps * max(1.0, abs(slope)), (pen, t)

    @pytest.mark.parametrize("pen", [scad(2.5), scad(3.7), mcp(1.9)])
    def test_breakpoint_is_in_the_lower_piece(self, pen):
        # at these shapes the two pieces that meet at a breakpoint round pen
        # or pen' differently there, so the bits tell which piece was read;
        # pen' is the piece's slope clamped at zero
        split = set()
        for k, t in enumerate(pen.breakpoints):
            below, above = pen.pieces[k], pen.pieces[k + 1]
            slope = max(below[0] * t + below[1], 0.0)
            for x, s in ((t, 1.0), (-t, -1.0)):
                assert pen_value(pen, x) == piece_value(below, t)
                assert pen_derivative(pen, x) == s * slope
            if piece_value(above, t) != piece_value(below, t):
                split.add("value")
            if max(above[0] * t + above[1], 0.0) != slope:
                split.add("slope")
        assert split == {"value", "slope"}

    @settings(max_examples=300, deadline=None)
    @given(
        pen=st.one_of(
            st.floats(2.0, 50.0, exclude_min=True).map(scad),
            st.floats(1.0, 50.0, exclude_min=True).map(mcp),
        ),
        data=st.data(),
    )
    def test_slope_is_nonnegative(self, pen, data):
        # pen is monotone away from zero, also where a falling piece's
        # c t + l rounds below zero at its end (SCAD's at |b| = a)
        edges = [math.nextafter(b, toward) for b in pen.breakpoints for toward in (0.0, math.inf)]
        t = data.draw(st.one_of(
            st.floats(0.0, 2.0 * max(pen.breakpoints), exclude_min=True),
            st.sampled_from([*pen.breakpoints, *edges]),
        ))
        assert pen_derivative(pen, t) >= 0.0, (pen, t)
        assert pen_derivative(pen, -t) <= 0.0, (pen, t)

    @settings(max_examples=50)
    @given(a=st.floats(2.0, 50.0, exclude_min=True), g=st.floats(1.0, 50.0, exclude_min=True))
    def test_limits(self, a, g):
        assert scad(a).limit == a - 1.0 and mcp(g).limit == g
        assert lasso().limit == elastic_net(0.3).limit == math.inf

    def test_identity_is_kind_and_param(self):
        # the table is built from (kind, param) and takes no part in
        # equality, hashing or repr
        assert PenaltySpec("scad", 3.7) == scad()
        assert hash(scad()) == hash(("scad", 3.7))
        assert repr(scad()) == "PenaltySpec(kind='scad', param=3.7)"
        assert [f.name for f in dataclasses.fields(scad()) if f.compare] == ["kind", "param"]

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_nan_coefficient_gives_nan(self, pen):
        # a NaN used to read as a finite value: 2.35 (scad), 1.5 (mcp),
        # and pen' 0.0 (scad, mcp) or -1.0 (lasso)
        assert math.isnan(pen_value(pen, math.nan))
        assert math.isnan(pen_derivative(pen, math.nan))


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
            univariate_threshold(lasso(), z, lam) / (1 + lam * 0.8), abs=0
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
        with pytest.raises(ValueError, match=r"^lambda must be nonnegative, got -1\.0$"):
            univariate_threshold(scad(), 1.0, -1.0)

    @pytest.mark.parametrize(
        "pen, z, lam, message",
        [
            (lasso(), 1.0, math.nan, "lambda must be finite, got nan"),
            (scad(), 5.0, math.inf, "lambda must be finite, got inf"),
            (mcp(), math.nan, 1.0, "z must be finite, got nan"),
            (elastic_net(0.5), math.inf, 0.0, "z must be finite, got inf"),
        ],
    )
    def test_nonfinite_rejected(self, pen, z, lam, message):
        # each used to return a number silently
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            univariate_threshold(pen, z, lam)

    @pytest.mark.parametrize("pen", [*ALL_KINDS, scad(2.5), mcp(1.5)])
    def test_map_bit_equal_at_special_values(self, pen):
        # the solver's resolved map against the dispatch it replaced, and
        # univariate_threshold against both wherever it accepts the level
        threshold = threshold_map(pen)
        for level in special_levels(pen):
            for z in special_zs(level):
                ref = oracles.threshold_dispatch_reference(pen, z, level).hex()
                assert threshold(z, level).hex() == ref, (z, level)
                if math.isfinite(level) and math.isfinite(z):
                    assert univariate_threshold(pen, z, level).hex() == ref, (z, level)

    @pytest.mark.parametrize("pen", [*ALL_KINDS, scad(2.5), mcp(1.5)])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_map_bit_equal(self, pen, data):
        z, level = data.draw(map_arguments(pen))
        ref = oracles.threshold_dispatch_reference(pen, z, level).hex()
        assert threshold_map(pen)(z, level).hex() == ref
        if math.isfinite(level) and math.isfinite(z):
            assert univariate_threshold(pen, z, level).hex() == ref

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
        # why solve skips a zero coordinate with |z| <= lam only for lam
        # below the penalty's limit: past MC+'s gamma or SCAD's a - 1 the
        # scalar minimizer can be z itself
        assert univariate_threshold(mcp(1.5), 1.9, 2.0) == 1.9
        assert univariate_threshold(scad(), 9.0, 10.0) == 9.0
        assert not 2.0 < mcp(1.5).limit
        assert not 10.0 < scad().limit
        assert 1.4 < mcp(1.5).limit
        assert 2.6 < scad().limit

    @pytest.mark.parametrize("pen", [*ALL_KINDS, scad(2.5), mcp(1.5)])
    @settings(max_examples=60, deadline=None)
    @given(lam=lams, frac=st.floats(-1, 1))
    def test_zero_within_level(self, pen, lam, frac):
        if lam < pen.limit:
            assert univariate_threshold(pen, frac * lam, lam) == 0.0
            assert univariate_threshold(pen, math.copysign(lam, frac), lam) == 0.0

    # an MC+ shape at which rounding breaks the tie of f(0) and f(gamma) at
    # z = lam = gamma toward z, so the map is not zero within lam = limit
    ROUNDING_GAMMA = 1.734065401009878

    @pytest.mark.parametrize("pen", [scad(2.5), scad(3.7), mcp(1.5), mcp(3.0), mcp(ROUNDING_GAMMA)])
    def test_zero_skip_regime(self, pen):
        # The sweep skips a zero coordinate with |grad_j| <= lam where lam <
        # pen.limit, so there the map must be zero on all of
        # [-lam, lam]. It holds below the limit and not at it: at lam =
        # limit the map is zero within lam for the four named shapes, but not
        # for ROUNDING_GAMMA, and past the limit MC+ takes z = lam to z.
        for lam in (math.nextafter(pen.limit, 0.0), pen.limit, math.nextafter(pen.limit, math.inf)):
            inner = math.nextafter(lam, 0.0)
            zs = [*np.linspace(-lam, lam, 401).tolist(), lam, -lam, inner, -inner]
            if lam < pen.limit:
                assert all(univariate_threshold(pen, z, lam) == 0.0 for z in zs), lam
            # one unit column from zero: the sweep's first update is the map
            fit = solve(np.ones((1, 1)), np.array([lam]), lam, pen)
            assert fit.beta.tolist() == [univariate_threshold(pen, lam, lam)], lam
        if pen.param == self.ROUNDING_GAMMA:
            assert univariate_threshold(pen, pen.limit, pen.limit) == pen.limit

    def test_exact_tie_resolves_to_smaller_magnitude(self):
        # mcp(gamma=2), lam=2, z=2: the objective at b=0 and b=2 is exactly
        # 2.0 in floats; the tie must go to the smaller-magnitude solution
        pen = mcp(2.0)
        assert scalar_objective(pen, 2.0, 2.0, 0.0) == scalar_objective(pen, 2.0, 2.0, 2.0)
        assert univariate_threshold(pen, 2.0, 2.0) == 0.0
        assert univariate_threshold(pen, -2.0, 2.0) == 0.0
