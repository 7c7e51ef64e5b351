"""Region classification in the (xi, zeta) plane and exact inversion.

Hermitian orderings live in the region 1/4 >= -xi/2 >= zeta >= 0. Four
overlapping two-parameter classes cover it:

    vR  : zeta <= xi^2                      (mirrored two-term pair)
    I   : xi^2 <= zeta <= min((xi+1/2)^2 + xi^2, 2 xi^2)
    II  : 2 xi^2 <= zeta                    (symmetric term mixed with p(1/m)p)
    III : (xi+1/2)^2 + xi^2 <= zeta         (symmetric term mixed with ZK)

Shared boundary curves get named flags; each class can be inverted back
to a concrete two-term ordering that reproduces (xi, zeta) exactly. The
theta = zeta - xi^2 coordinate exposes a duality that reflects vR points
onto class-I points with the same {alpha, gamma}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstraintUnsatisfied,
    DualOutsideAllowedRegion,
    OutsideAllowedRegion,
)
from .ordering import BuildingBlock, OrderingSpec
from .surds import Surd, exact

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
        object.__setattr__(self, "xi", Fraction(self.xi))
        object.__setattr__(self, "theta", Fraction(self.theta))


def _rat(x) -> Fraction:
    value = exact(x)
    if isinstance(value, Surd):
        value = value.as_fraction()
    return value


def in_allowed_region(xi, zeta) -> bool:
    """Exact test of 1/4 >= -xi/2 >= zeta >= 0."""
    xi, zeta = _rat(xi), _rat(zeta)
    return Fraction(1, 4) >= -xi / 2 and -xi / 2 >= zeta and zeta >= 0


def _require_allowed(xi: Fraction, zeta: Fraction) -> None:
    if zeta < 0:
        raise OutsideAllowedRegion(xi, zeta, "zeta < 0")
    if zeta > -xi / 2:
        raise OutsideAllowedRegion(xi, zeta, "zeta > -xi/2")
    if -xi / 2 > Fraction(1, 4):
        raise OutsideAllowedRegion(xi, zeta, "-xi/2 > 1/4 (xi < -1/2)")


def _region_tests(xi: Fraction, zeta: Fraction) -> dict[str, bool]:
    mb = xi * xi
    cap_i = min(mb + (xi + Fraction(1, 2)) ** 2, 2 * mb)
    return {
        "vR": zeta <= mb,
        "I": mb <= zeta <= cap_i,
        "II": 2 * mb <= zeta,
        "III": mb + (xi + Fraction(1, 2)) ** 2 <= zeta,
    }


def _boundary_flags(xi: Fraction, zeta: Fraction) -> frozenset[str]:
    flags = set()
    if zeta == xi * xi:
        flags.add(MB_LINE)
    if zeta == 2 * xi * xi:
        flags.add(I_II_LINE)
    if zeta == (xi + Fraction(1, 2)) ** 2 + xi * xi:
        flags.add(I_III_LINE)
    if zeta == -xi / 2:
        flags.add(UPPER_LINE)
    if zeta == 0:
        flags.add(LOWER_LINE)
    return frozenset(flags)


def classify(xi, zeta) -> set[ClassLabel]:
    """All class labels whose closed region contains (xi, zeta).

    Regions overlap, so boundary points belong to every adjacent class;
    each label carries the boundary flags incident to its own region.
    """
    xi, zeta = _rat(xi), _rat(zeta)
    _require_allowed(xi, zeta)
    flags = _boundary_flags(xi, zeta)
    members = _region_tests(xi, zeta)
    return {
        ClassLabel(region, flags & _INCIDENT[region])
        for region in REGIONS
        if members[region]
    }


def _symmetric_term(w, a) -> BuildingBlock:
    return BuildingBlock(w, a, -1 - 2 * a, a)


def _maybe_float(value, float_mode: bool):
    # float mode hands back the numeric value as an exact binary fraction,
    # so downstream invariants still hold bit-for-bit
    if float_mode and isinstance(value, Surd):
        return Fraction(float(value))
    return value


def invert(xi, zeta, region: str, float_mode: bool = False) -> OrderingSpec:
    """Construct the two-term ordering of the requested class at (xi, zeta).

    Square roots are returned as exact surds; with float_mode=True they are
    evaluated numerically instead. Round trip: linear_params(invert(x, z, c))
    equals (x, z, 0) exactly in surd mode.
    """
    xi, zeta = _rat(xi), _rat(zeta)
    if region not in REGIONS:
        raise ConstraintUnsatisfied(f"unknown class {region!r}; expected one of {REGIONS}")
    _require_allowed(xi, zeta)
    if not _region_tests(xi, zeta)[region]:
        raise ConstraintUnsatisfied(
            f"({xi}, {zeta}) does not satisfy the class {region} constraint"
        )
    half = Fraction(1, 2)
    name = f"{region}-inverse({xi},{zeta})"

    if region == "vR":
        s = _maybe_float(Surd.sqrt(xi * xi - zeta), float_mode)
        alpha, gamma = exact(xi + s), exact(xi - s)
        beta = -1 - alpha - gamma
        terms = (
            BuildingBlock(half, alpha, beta, gamma),
            BuildingBlock(half, gamma, beta, alpha),
        )
    elif region == "I":
        s = _maybe_float(Surd.sqrt(zeta - xi * xi), float_mode)
        alpha, gamma = exact(xi + s), exact(xi - s)
        terms = (_symmetric_term(half, alpha), _symmetric_term(half, gamma))
    # In the allowed region the class II and III tests leave no vanishing
    # denominator and put the mixed-term weight w in [0, 1/2]: class II at
    # xi = 0 forces zeta = 0 (zeta <= -xi/2), and elsewhere zeta >= 2 xi^2 > 0;
    # class III at xi = -1/2 forces zeta = 1/4, and elsewhere
    # xi + zeta + 1/4 >= 2 (xi + 1/2)^2 > 0.
    elif region == "II":
        if xi == 0:
            terms = (BuildingBlock(1, 0, -1, 0),)  # the (0, 0) corner: plain p(1/m)p
        else:
            w = xi * xi / zeta
            terms = (_symmetric_term(w, zeta / xi), BuildingBlock(1 - w, 0, -1, 0))
    else:  # III
        if xi == -half:
            terms = (_symmetric_term(1, -half),)  # the (-1/2, 1/4) corner: pure ZK form
        else:
            w = (xi + half) ** 2 / (xi + zeta + Fraction(1, 4))
            alpha = (xi + 2 * zeta) / (2 * xi + 1)
            terms = (_symmetric_term(w, alpha), _symmetric_term(1 - w, -half))

    return OrderingSpec(terms, name=name)


def to_duality(xi, zeta) -> DualityParams:
    """Map an allowed (xi, zeta) to duality coordinates (xi, theta = zeta - xi^2)."""
    xi, zeta = _rat(xi), _rat(zeta)
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
    allowed region, in row-major (xi outer, zeta inner) order.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    steps = resolution - 1
    # every point is (x/d, z/d) over the shared denominator d, so each test
    # of classify becomes an integer comparison scaled by d^2
    d = 4 * steps
    zetas = [Fraction(z, d) for z in range(steps + 1)]
    labels = {}  # region and boundary tests -> the labels classify builds
    out = []
    for i in range(resolution):
        x = 2 * (i - steps)
        xi = Fraction(x, d)
        mb, i_ii, i_iii = x * x, 2 * x * x, x * x + (x + d // 2) ** 2
        for z, zeta in enumerate(zetas):
            if 2 * z > -x:  # zeta > -xi/2: the rest of the column is outside
                break
            zd = z * d
            tests = (
                zd <= mb, mb <= zd <= min(i_iii, i_ii), i_ii <= zd, i_iii <= zd,
                zd == mb, zd == i_ii, zd == i_iii, 2 * z == -x, z == 0,
            )
            if tests not in labels:
                flags = frozenset(b for b, on in zip(BOUNDARY_NAMES, tests[4:]) if on)
                labels[tests] = tuple(
                    ClassLabel(region, flags & _INCIDENT[region])
                    for region, inside in zip(REGIONS, tests[:4])
                    if inside
                )
            out.append((xi, zeta, set(labels[tests])))
    return out
