"""Regular sparse penalties and their univariate thresholding maps.

A penalty here is a fixed function pen: R -> R+ that is symmetric,
monotone away from zero, non-differentiable only at zero, and whose
derivative magnitude tends to 1 at the origin. The fitting objective
multiplies pen by an external weight lambda, so the concave penalties
(SCAD, MC+) are kept at unit internal scale: their shape parameter is
the only knob.

The thresholding map ``univariate_threshold(pen, z, lam)`` solves the
scalar problem

    minimize over b:  0.5 * (z - b)^2 + lam * pen(b)

exactly. For the Lasso this is plain soft thresholding and for the
elastic net a shrunken soft threshold. For SCAD and MC+ the objective is
piecewise quadratic. Where it is convex (MC+ with lam < gamma, SCAD with
lam < a - 1) the minimizer has a closed form: firm thresholding for MC+
(Zhang 2010) and the three-piece SCAD rule (Fan & Li 2001; Breheny &
Huang 2011). In the unit-scale parameterization used here these read

    MC+:   0 for z <= lam, gamma (z - lam) / (gamma - lam) for z < gamma,
           z beyond;
    SCAD:  0 for z <= lam, z - lam up to 1, (z - lam a/(a-1)) / (1 - lam/(a-1))
           up to a, z beyond.

Otherwise a middle piece is concave and the minimizer is one of a few
candidates (0, a piece boundary, a convex piece's stationary point, z),
compared by objective with ties going to the smaller magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("lasso", "elastic_net", "scad", "mcp")

SCAD_DEFAULT_A = 3.7
MCP_DEFAULT_GAMMA = 3.0
ENET_DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty identity plus its single shape parameter.

    kind         one of "lasso", "elastic_net", "scad", "mcp"
    param        elastic_net: ridge weight alpha in (0, 1];
                 scad: a > 2; mcp: gamma > 1; ignored for lasso
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "elastic_net" and not 0.0 < self.param <= 1.0:
            raise ValueError(f"elastic_net alpha must be in (0, 1], got {self.param}")
        if self.kind == "scad" and not self.param > 2.0:
            raise ValueError(f"scad shape a must exceed 2, got {self.param}")
        if self.kind == "mcp" and not self.param > 1.0:
            raise ValueError(f"mcp shape gamma must exceed 1, got {self.param}")

    @property
    def convex(self) -> bool:
        return self.kind in ("lasso", "elastic_net")


def lasso() -> PenaltySpec:
    return PenaltySpec("lasso")


def elastic_net(alpha: float = ENET_DEFAULT_ALPHA) -> PenaltySpec:
    return PenaltySpec("elastic_net", alpha)


def scad(a: float = SCAD_DEFAULT_A) -> PenaltySpec:
    return PenaltySpec("scad", a)


def mcp(gamma: float = MCP_DEFAULT_GAMMA) -> PenaltySpec:
    return PenaltySpec("mcp", gamma)


def soft_threshold(x: float, lam: float) -> float:
    """sign(x) * (|x| - lam)+, the Lasso's univariate solution map."""
    if lam < 0:
        raise ValueError(f"threshold level must be nonnegative, got {lam}")
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def pen_value(p: PenaltySpec, x: float) -> float:
    """Evaluate the penalty at a scalar coefficient."""
    t = abs(x)
    if p.kind == "lasso":
        return t
    if p.kind == "elastic_net":
        return t + 0.5 * p.param * t * t
    if p.kind == "scad":
        a = p.param
        if t <= 1.0:
            return t
        if t <= a:
            return (2.0 * a * t - t * t - 1.0) / (2.0 * (a - 1.0))
        return 0.5 * (a + 1.0)
    # mcp
    g = p.param
    if t <= g:
        return t - t * t / (2.0 * g)
    return 0.5 * g


def pen_derivative(p: PenaltySpec, x: float) -> float:
    """Derivative of pen_value at x != 0 (the penalty has a kink at zero)."""
    if x == 0.0:
        raise ValueError("penalty is non-differentiable at zero")
    s = 1.0 if x > 0 else -1.0
    t = abs(x)
    if p.kind == "lasso":
        return s
    if p.kind == "elastic_net":
        return s * (1.0 + p.param * t)
    if p.kind == "scad":
        a = p.param
        if t <= 1.0:
            return s
        if t <= a:
            return s * (a - t) / (a - 1.0)
        return 0.0
    # mcp
    g = p.param
    if t <= g:
        return s * (1.0 - t / g)
    return 0.0


def _threshold_scad(a: float, z: float, lam: float) -> float:
    # z > 0, lam > 0. The objective is quadratic on [0, 1], [1, a] and
    # [a, inf), with curvature 1 - lam/(a-1) on the middle piece.
    b1 = z - lam
    curv = 1.0 - lam / (a - 1.0)
    if curv > 0.0:
        # convex: the stationary point of the piece that holds it
        if b1 <= 0.0:
            return 0.0
        if b1 <= 1.0:
            return b1
        b2 = (z - lam * a / (a - 1.0)) / curv
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
    f = 0.5 * r * r + lam * ((2.0 * a * a - a * a - 1.0) / (2.0 * (a - 1.0)))
    if f < best_f:
        best, best_f = a, f
    if z > a and lam * (0.5 * (a + 1.0)) < best_f:
        best = z
    return best


def _threshold_mcp(g: float, z: float, lam: float) -> float:
    # z > 0, lam > 0. The objective has curvature 1 - lam/g on [0, g]
    # and is 0.5 * (z - b)^2 + const beyond.
    if lam < g:
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


def zero_within_level(p: PenaltySpec, lam: float) -> bool:
    """True when ``univariate_threshold(p, z, lam)`` is zero for every
    |z| <= lam: always for the convex penalties, and for SCAD and MC+ only
    where their scalar objective is convex (the tests in
    ``_threshold_scad`` and ``_threshold_mcp``). Otherwise a z just below
    lam can map to z itself."""
    if p.kind == "mcp":
        return lam < p.param
    if p.kind == "scad":
        return 1.0 - lam / (p.param - 1.0) > 0.0
    return True


def univariate_threshold(p: PenaltySpec, z: float, lam: float) -> float:
    """Global minimizer of 0.5*(z - b)^2 + lam * pen(b) over scalar b."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if lam == 0.0:
        return z
    if p.kind == "lasso":
        return soft_threshold(z, lam)
    if p.kind == "elastic_net":
        return soft_threshold(z, lam) / (1.0 + lam * p.param)
    if z == 0.0:
        return 0.0
    threshold = _threshold_scad if p.kind == "scad" else _threshold_mcp
    if z < 0.0:
        return -threshold(p.param, -z, lam)
    return threshold(p.param, z, lam)
