"""Regular sparse penalties and their univariate thresholding maps.

A penalty here is a fixed function pen: R -> R+ that is symmetric,
monotone away from zero, non-differentiable only at zero, and whose
derivative magnitude tends to 1 at the origin. The fitting objective
multiplies pen by an external weight lambda, so the concave penalties
(SCAD, MC+) are kept at unit internal scale: their shape parameter is
the only knob. Every pen here is quadratic on pieces of |b|, and each
``PenaltySpec`` carries its table of pieces, which ``pen_value``,
``pen_derivative`` and the solver's polish read.

The thresholding map ``univariate_threshold(pen, z, lam)`` solves the
scalar problem

    minimize over b:  0.5 * (z - b)^2 + lam * pen(b)

exactly. For the Lasso this is plain soft thresholding and for the
elastic net a shrunken soft threshold. For SCAD and MC+ the objective is
piecewise quadratic. Where it is convex (lam below the table's limit:
gamma for MC+, a - 1 for SCAD) the minimizer has a closed form: firm
thresholding for MC+ (Zhang 2010) and the three-piece SCAD rule (Fan &
Li 2001; Breheny & Huang 2011). In the unit-scale parameterization used
here these read

    MC+:   0 for z <= lam, gamma (z - lam) / (gamma - lam) for z < gamma,
           z beyond;
    SCAD:  0 for z <= lam, z - lam up to 1, (z - lam a/(a-1)) / (1 - lam/(a-1))
           up to a, z beyond.

Otherwise a middle piece is concave and the minimizer is one of a few
candidates (0, a piece boundary, a convex piece's stationary point, z),
compared by objective with ties going to the smaller magnitude.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .linalg import require_scalar

KINDS = ("lasso", "elastic_net", "scad", "mcp")
_PARAM_NAMES = dict(lasso="lasso param", elastic_net="elastic_net alpha", scad="scad shape a", mcp="mcp shape gamma")

SCAD_DEFAULT_A = 3.7
MCP_DEFAULT_GAMMA = 3.0
ENET_DEFAULT_ALPHA = 0.5

# Each kind's table from its shape parameter: (breakpoints, one row (c, l,
# v) per piece, limit). SCAD's v = -1/(2(a-1)) makes the middle piece meet
# the first at |b| = 1.
_TABLES = dict(
    lasso=lambda s: ((), ((0.0, 1.0, 0.0),), math.inf),
    elastic_net=lambda s: ((), ((s, 1.0, 0.0),), math.inf),
    scad=lambda s: (
        (1.0, s),
        ((0.0, 1.0, 0.0), (-1.0 / (s - 1.0), s / (s - 1.0), -0.5 / (s - 1.0)), (0.0, 0.0, 0.5 * (s + 1.0))),
        s - 1.0,
    ),
    mcp=lambda s: ((s,), ((-1.0 / s, 1.0, 0.0), (0.0, 0.0, 0.5 * s)), s),
)


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty identity plus its single shape parameter, and the penalty's
    piece table, built from the two once. Equality, hash and repr read
    (kind, param) only.

    kind         one of "lasso", "elastic_net", "scad", "mcp"
    param        elastic_net: ridge weight alpha in (0, 1];
                 scad: a > 2; mcp: gamma > 1; ignored for lasso
    breakpoints  ascending; piece k of |b| runs from breakpoint k - 1 (0
                 for the first) to breakpoint k (inf for the last), and a
                 |b| on a breakpoint is in the lower piece
    pieces       one row (c, l, v) per piece: on it pen(b) = c b^2 / 2 +
                 l |b| + v and pen'(b) = c b + s l, with s the sign of b
    limit        the scalar objective 0.5 (z - b)^2 + lam pen(b) is convex
                 exactly for lam < limit: a - 1 for SCAD, gamma for MC+,
                 inf for the Lasso and the elastic net. There, and only
                 there, the threshold map is zero for every |z| <= lam;
                 beyond it a z just below lam can map to z itself, and at
                 lam = gamma rounding can take z = lam to itself under MC+
    """

    kind: str
    param: float = 0.0
    breakpoints: tuple = field(init=False, compare=False, repr=False)
    pieces: tuple = field(init=False, compare=False, repr=False)
    limit: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        require_scalar(_PARAM_NAMES[self.kind], self.param, None)
        if self.kind == "elastic_net" and not 0.0 < self.param <= 1.0:
            raise ValueError(f"elastic_net alpha must be in (0, 1], got {self.param}")
        if self.kind in ("scad", "mcp"):
            low = 2 if self.kind == "scad" else 1
            if not self.param > low:
                raise ValueError(f"{_PARAM_NAMES[self.kind]} must exceed {low}, got {self.param}")
        for name, value in zip(("breakpoints", "pieces", "limit"), _TABLES[self.kind](self.param)):
            object.__setattr__(self, name, value)

    @property
    def convex(self) -> bool:
        return self.limit == math.inf


def lasso() -> PenaltySpec:
    return PenaltySpec("lasso")


def elastic_net(alpha: float = ENET_DEFAULT_ALPHA) -> PenaltySpec:
    return PenaltySpec("elastic_net", alpha)


def scad(a: float = SCAD_DEFAULT_A) -> PenaltySpec:
    return PenaltySpec("scad", a)


def mcp(gamma: float = MCP_DEFAULT_GAMMA) -> PenaltySpec:
    return PenaltySpec("mcp", gamma)


def _soft(z: float, level: float) -> float:
    # at level 0 the map is the identity, so a -0.0 survives
    if z > level:
        return z - level
    if z < -level:
        return z + level
    return z if level == 0.0 else 0.0


def pen_value(p: PenaltySpec, x: float) -> float:
    """Evaluate the penalty at a finite scalar coefficient (NaN gives NaN)."""
    t = abs(x)
    c, l, v = p.pieces[bisect_left(p.breakpoints, t)]
    return 0.5 * c * t * t + l * t + v


def pen_derivative(p: PenaltySpec, x: float) -> float:
    """Derivative of pen_value at a finite x != 0 (the penalty has a kink
    at zero; NaN gives NaN)."""
    if x == 0.0:
        raise ValueError("penalty is non-differentiable at zero")
    t = abs(x)
    c, l, _ = p.pieces[bisect_left(p.breakpoints, t)]
    # pen is monotone away from zero; c t + l can round below zero where a
    # falling piece ends (SCAD at |b| = a). max keeps a NaN as NaN
    slope = max(c * t + l, 0.0)
    return slope if x > 0.0 else -slope


def _threshold_scad(a: float, limit: float, z: float, lam: float) -> float:
    # z > 0, lam > 0, limit = a - 1. The objective is quadratic on [0, 1],
    # [1, a] and [a, inf), with curvature 1 - lam/(a-1) on the middle piece.
    b1 = z - lam
    if lam < limit:
        # convex: the stationary point of the piece that holds it
        if b1 <= 0.0:
            return 0.0
        if b1 <= 1.0:
            return b1
        b2 = (z - lam * a / limit) / (1.0 - lam / limit)
        # float rounding can put b2 one ulp above z
        return min(b2, z) if b2 <= a else z
    # middle piece not convex: the minimizer is 0, the first piece's
    # stationary point, 1, a or z. Candidates go in ascending order and
    # only a strictly smaller objective replaces the best, so ties
    # resolve toward the smaller-magnitude solution.
    best, best_f = 0.0, 0.5 * z * z
    if 0.0 < b1 <= 1.0:
        r = z - b1
        f = 0.5 * r * r + lam * b1
        if f < best_f:
            best, best_f = b1, f
    r = z - 1.0
    f = 0.5 * r * r + lam
    if f < best_f:
        best, best_f = 1.0, f
    r = z - a
    f = 0.5 * r * r + lam * ((2.0 * a * a - a * a - 1.0) / (2.0 * limit))
    if f < best_f:
        best, best_f = a, f
    if z > a and lam * (0.5 * (a + 1.0)) < best_f:
        best = z
    return best


def _threshold_mcp(g: float, limit: float, z: float, lam: float) -> float:
    # z > 0, lam > 0, limit = g. The objective has curvature 1 - lam/g on
    # [0, g] and is 0.5 * (z - b)^2 + const beyond.
    if lam < limit:
        # convex: firm thresholding
        if z <= lam:
            return 0.0
        if z < g:
            return min(g * (z - lam) / (g - lam), z)
        return z
    # concave on [0, g]: the minimizer is 0, g or z; ties resolve toward
    # the smaller-magnitude solution
    best, best_f = 0.0, 0.5 * z * z
    r = z - g
    f = 0.5 * r * r + lam * (g - g * g / (2.0 * g))
    if f < best_f:
        best, best_f = g, f
    if z > g and lam * (0.5 * g) < best_f:
        best = z
    return best


def threshold_map(p: PenaltySpec):
    """``univariate_threshold`` for one penalty, resolved once and without
    its argument checks: f(z, level) gives the same float for every
    level >= 0, and takes a level of inf (a subnormal c_j can make one in
    ``solve``) to a zero."""
    if p.kind == "lasso":
        return _soft
    shape, limit = p.param, p.limit
    if p.kind == "elastic_net":
        return lambda z, level: _soft(z, level) / (1.0 + level * shape)
    rule = _threshold_scad if p.kind == "scad" else _threshold_mcp

    def threshold(z: float, level: float) -> float:
        if level == 0.0:
            return z
        if z == 0.0:
            return 0.0
        if z < 0.0:
            return -rule(shape, limit, -z, level)
        return rule(shape, limit, z, level)

    return threshold


def univariate_threshold(p: PenaltySpec, z: float, lam: float) -> float:
    """Global minimizer of 0.5*(z - b)^2 + lam * pen(b) over scalar b."""
    require_scalar("lambda", lam)
    return threshold_map(p)(require_scalar("z", z, None), lam)
