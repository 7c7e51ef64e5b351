"""Region classification in the (xi, zeta) plane and exact inversion.

Hermitian orderings live in the region 1/4 >= -xi/2 >= zeta >= 0. Four
overlapping two-parameter classes cover it:

    vR  : zeta <= xi^2                      (mirrored two-term pair)
    I   : xi^2 <= zeta <= min((xi+1/2)^2 + xi^2, 2 xi^2)
    II  : 2 xi^2 <= zeta                    (symmetric term mixed with p(1/m)p)
    III : (xi+1/2)^2 + xi^2 <= zeta         (symmetric term mixed with ZK)

Shared boundary curves get named flags. The region, the classes and the
curves are each stated once, as exact integer tests of the point scaled
to (x/d, z/d) over an even denominator d (`_outside`, `_tests`). Each
class can be inverted back to a concrete two-term ordering that
reproduces (xi, zeta) exactly, in one of two shapes. For every Hermitian
ordering theta = zeta - xi^2 is the weighted covariance Cov_w(alpha,
gamma), so vR and I both use the exponents xi +- sqrt|theta|, as a
mirrored pair (theta <= 0) or as two symmetric terms (theta >= 0); II and
III mix one symmetric term with a fixed one, p(1/m)p or ZK. The
reflection theta -> -theta is thus a duality that maps vR points onto
class-I points with the same {alpha, gamma}.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstraintUnsatisfied,
    DualOutsideAllowedRegion,
    OutsideAllowedRegion,
)
from .ordering import BuildingBlock, OrderingSpec
from .surds import Surd, exact, float_sqrt, rational

REGIONS = ("vR", "I", "II", "III")

MB_LINE = "MB"          # zeta = xi^2
I_II_LINE = "I/II"      # zeta = 2 xi^2
I_III_LINE = "I/III"    # zeta = (xi + 1/2)^2 + xi^2
UPPER_LINE = "upper"    # zeta = -xi/2
LOWER_LINE = "lower"    # zeta = 0

BOUNDARY_NAMES = (MB_LINE, I_II_LINE, I_III_LINE, UPPER_LINE, LOWER_LINE)

# boundary curves that form part of each class region's own boundary
_INCIDENT = {
    "vR": frozenset({MB_LINE, LOWER_LINE, UPPER_LINE}),
    "I": frozenset({MB_LINE, I_II_LINE, I_III_LINE, UPPER_LINE}),
    "II": frozenset({I_II_LINE, LOWER_LINE, UPPER_LINE}),
    "III": frozenset({I_III_LINE, UPPER_LINE}),
}


@dataclass(frozen=True)
class ClassLabel:
    region: str
    boundaries: frozenset[str]

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        object.__setattr__(self, "boundaries", frozenset(self.boundaries))


@dataclass(frozen=True)
class DualityParams:
    """(xi, theta) with theta = zeta - xi^2 for the source point."""

    xi: Fraction
    theta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "xi", rational(self.xi))
        object.__setattr__(self, "theta", rational(self.theta))


def _scaled(xi: Fraction, zeta: Fraction) -> tuple[int, int, int]:
    """(x, z, d) with (xi, zeta) = (x/d, z/d) and d even."""
    d = 2 * math.lcm(xi.denominator, zeta.denominator)
    return xi.numerator * (d // xi.denominator), zeta.numerator * (d // zeta.denominator), d


def _outside(x: int, z: int, d: int) -> str | None:
    """Why (x/d, z/d) breaks 1/4 >= -xi/2 >= zeta >= 0, or None."""
    if z < 0:
        return "zeta < 0"
    if 2 * z > -x:
        return "zeta > -xi/2"
    if -2 * x > d:
        return "-xi/2 > 1/4 (xi < -1/2)"
    return None


def _tests(x: int, z: int, d: int) -> tuple[bool, ...]:
    """Class memberships (REGIONS order), then curve flags (BOUNDARY_NAMES
    order), of the point (x/d, z/d) with d even: each test of xi and zeta
    is an integer comparison scaled by d^2."""
    zd, mb = z * d, x * x
    i_ii, i_iii = 2 * mb, mb + (x + d // 2) ** 2
    return (
        zd <= mb, mb <= zd <= min(i_iii, i_ii), i_ii <= zd, i_iii <= zd,
        zd == mb, zd == i_ii, zd == i_iii, 2 * z == -x, z == 0,
    )


@functools.cache
def _labels(tests: tuple[bool, ...]) -> tuple[ClassLabel, ...]:
    """The labels of a `_tests` tuple, built once for each of its few values."""
    flags = frozenset(b for b, on in zip(BOUNDARY_NAMES, tests[len(REGIONS):]) if on)
    return tuple(
        ClassLabel(region, flags & _INCIDENT[region])
        for region, inside in zip(REGIONS, tests)
        if inside
    )


def in_allowed_region(xi, zeta) -> bool:
    """Exact test of 1/4 >= -xi/2 >= zeta >= 0."""
    return _outside(*_scaled(rational(xi), rational(zeta))) is None


def _require_allowed(xi: Fraction, zeta: Fraction) -> tuple[int, int, int]:
    """The scaled point (x, z, d) of an allowed (xi, zeta)."""
    point = _scaled(xi, zeta)
    reason = _outside(*point)
    if reason:
        raise OutsideAllowedRegion(xi, zeta, reason)
    return point


def classify(xi, zeta) -> set[ClassLabel]:
    """All class labels whose closed region contains (xi, zeta).

    Regions overlap, so boundary points belong to every adjacent class;
    each label carries the boundary flags incident to its own region.
    """
    return set(_labels(_tests(*_require_allowed(rational(xi), rational(zeta)))))


def _symmetric_term(w, a) -> BuildingBlock:
    return BuildingBlock(w, a, -1 - 2 * a, a)


def _root(r: Fraction, float_mode: bool):
    """sqrt(r) as an exact Surd, or in float mode its float as a binary
    Fraction (so downstream invariants hold bit for bit), rounded from
    integers where the exact root is out of reach."""
    try:
        s = Surd.sqrt(r)
    except ValueError:
        if not float_mode:
            raise
        return float_sqrt(r)
    return Fraction(float(s)) if float_mode else s


def invert(xi, zeta, region: str, float_mode: bool = False) -> OrderingSpec:
    """Construct the two-term ordering of the requested class at (xi, zeta).

    With theta = zeta - xi^2 = Cov_w(alpha, gamma), vR and I place the
    exponents xi +- sqrt|theta| two ways: as a mirrored pair (vR, theta <= 0)
    or as two symmetric terms of weight 1/2 (I, theta >= 0). II and III mix
    one symmetric term (w, a) with a fixed one f: BDD (f = 0) for II, ZK
    (f = -1/2) for III. Square roots are returned as exact surds; with
    float_mode=True they are evaluated numerically instead. Round trip:
    linear_params(invert(x, z, c)) equals (x, z, 0) exactly in surd mode.
    """
    xi, zeta = rational(xi), rational(zeta)
    if region not in REGIONS:
        raise ConstraintUnsatisfied(f"unknown class {region!r}; expected one of {REGIONS}")
    if not _tests(*_require_allowed(xi, zeta))[REGIONS.index(region)]:
        raise ConstraintUnsatisfied(
            f"({xi}, {zeta}) does not satisfy the class {region} constraint"
        )
    half = Fraction(1, 2)
    name = f"{region}-inverse({xi},{zeta})"

    if region in ("vR", "I"):
        s = _root(abs(zeta - xi * xi), float_mode)
        alpha, gamma = exact(xi + s), exact(xi - s)
        if region == "vR":
            beta = -1 - alpha - gamma
            terms = (BuildingBlock(half, alpha, beta, gamma), BuildingBlock(half, gamma, beta, alpha))
        else:
            terms = (_symmetric_term(half, alpha), _symmetric_term(half, gamma))
    else:
        # w a + (1 - w) f = xi, w a^2 + (1 - w) f^2 = zeta. Both class tests read
        # zeta >= (xi - f)^2 + xi^2, so a - f = (zeta - 2 f xi + f^2)/(xi - f)
        # has a numerator >= 2 (xi - f)^2 and w = (xi - f)/(a - f) is in (0, 1/2].
        # At the corner xi = f the allowed region leaves only zeta = f^2 (II:
        # zeta <= -xi/2 = 0; III: zeta >= xi^2 = 1/4 = -xi/2): the fixed term.
        f = Fraction(0) if region == "II" else -half
        if xi == f:
            terms = (_symmetric_term(1, f),)
        else:
            a = (zeta - f * f) / (xi - f) - f
            w = (xi - f) / (a - f)
            terms = (_symmetric_term(w, a), _symmetric_term(1 - w, f))
    return OrderingSpec(terms, name=name)


def to_duality(xi, zeta) -> DualityParams:
    """Map an allowed (xi, zeta) to duality coordinates (xi, theta = zeta - xi^2).

    For a Hermitian ordering theta = <alpha gamma> - <alpha><gamma> =
    Cov_w(alpha, gamma), since zeta = <alpha gamma> and xi = <gamma> = <alpha>."""
    xi, zeta = rational(xi), rational(zeta)
    _require_allowed(xi, zeta)
    return DualityParams(xi, zeta - xi * xi)


def from_duality(d: DualityParams) -> tuple[Fraction, Fraction]:
    """(xi, zeta) point of duality coordinates; the image must be allowed."""
    zeta = d.xi * d.xi + d.theta
    if not in_allowed_region(d.xi, zeta):
        raise DualOutsideAllowedRegion(d.xi, zeta)
    return d.xi, zeta


def dual(d: DualityParams) -> DualityParams:
    """Reflect theta -> -theta; errors if the image leaves the allowed region."""
    image = DualityParams(d.xi, -d.theta)
    from_duality(image)  # domain check
    return image


def region_samples(resolution: int):
    """Classify a uniform rational grid over xi in [-1/2, 0], zeta in [0, 1/4].

    Returns (xi, zeta, labels) triples for the grid points inside the
    allowed region, in row-major (xi outer, zeta inner) order. A resolution
    that is not an integer >= 2 is a ValueError.
    """
    try:
        resolution = operator.index(resolution)
    except TypeError:
        raise ValueError(f"need an integer resolution, got resolution = {resolution!r}") from None
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    steps = resolution - 1
    # every point is (x/d, z/d) over the shared denominator d
    d = 4 * steps
    zetas = [Fraction(z, d) for z in range(steps + 1)]
    out = []
    for i in range(resolution):
        x = 2 * (i - steps)
        xi = Fraction(x, d)
        for z, zeta in enumerate(zetas):
            if 2 * z > -x:  # zeta > -xi/2: the rest of the column is outside
                break
            out.append((xi, zeta, set(_labels(_tests(x, z, d)))))
    return out
