"""The classification as the paper states it, in Fraction arithmetic.

The independent reference for `pdmkeo.classify`, which tests scaled
integers instead: the allowed region 1/4 >= -xi/2 >= zeta >= 0, the four
overlapping classes and their boundary curves, each written out directly.
"""

from fractions import Fraction as F

from pdmkeo.classify import ClassLabel
from pdmkeo.errors import OutsideAllowedRegion

HALF = F(1, 2)

# the curves on each class region's own boundary
INCIDENT = {
    "vR": {"MB", "lower", "upper"},
    "I": {"MB", "I/II", "I/III", "upper"},
    "II": {"I/II", "lower", "upper"},
    "III": {"I/III", "upper"},
}


def reference_classify(xi, zeta) -> set:
    """The ClassLabels of (xi, zeta); OutsideAllowedRegion with the first
    broken inequality (zeta >= 0, then zeta <= -xi/2, then -xi/2 <= 1/4)."""
    xi, zeta = F(xi), F(zeta)
    if zeta < 0:
        raise OutsideAllowedRegion(xi, zeta, "zeta < 0")
    if zeta > -xi / 2:
        raise OutsideAllowedRegion(xi, zeta, "zeta > -xi/2")
    if -xi / 2 > F(1, 4):
        raise OutsideAllowedRegion(xi, zeta, "-xi/2 > 1/4 (xi < -1/2)")
    mb = xi * xi
    members = {
        "vR": zeta <= mb,
        "I": mb <= zeta <= min(mb + (xi + HALF) ** 2, 2 * mb),
        "II": 2 * mb <= zeta,
        "III": mb + (xi + HALF) ** 2 <= zeta,
    }
    curves = {
        "MB": zeta == mb,
        "I/II": zeta == 2 * mb,
        "I/III": zeta == (xi + HALF) ** 2 + mb,
        "upper": zeta == -xi / 2,
        "lower": zeta == 0,
    }
    flags = {name for name, on in curves.items() if on}
    return {ClassLabel(region, flags & INCIDENT[region])
            for region, inside in members.items() if inside}
