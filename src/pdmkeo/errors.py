"""Exception hierarchy shared by all pdmkeo modules.

Every domain failure derives from KeoError so the CLI can map library
errors to exit code 1 with a one-line diagnostic.
"""


class KeoError(Exception):
    """Base class for all domain errors raised by this package."""


class ConstraintViolation(KeoError):
    """A term's exponent sum alpha + beta + gamma differs from -1."""

    def __init__(self, violations):
        # violations: list of (term_index, actual_sum)
        self.violations = list(violations)
        detail = "; ".join(
            f"term {i}: alpha+beta+gamma = {s} != -1" for i, s in self.violations
        )
        super().__init__(f"per-term constraint violated: {detail}")


class WeightSumViolation(KeoError):
    """The term weights do not sum to one."""

    def __init__(self, actual):
        self.actual = actual
        super().__init__(f"weights must sum to 1, got {actual}")


class UnknownOrdering(KeoError):
    """Catalog lookup with an unrecognized ordering name."""


class ParameterDomainError(KeoError):
    """Catalog parameter outside the family's valid domain."""


class OutsideAllowedRegion(KeoError):
    """(xi, zeta) violates the Hermitian admissibility chain 1/4 >= -xi/2 >= zeta >= 0."""

    def __init__(self, xi, zeta, reason):
        self.xi, self.zeta = xi, zeta
        super().__init__(
            f"({xi}, {zeta}) outside allowed region: {reason}"
        )


class ConstraintUnsatisfied(KeoError):
    """The point does not satisfy the requested class's defining inequalities."""


class DegenerateDenominator(KeoError):
    """Inversion formula hits a vanishing denominator off its valid locus."""


class DualOutsideAllowedRegion(KeoError):
    """The dual image point falls outside the allowed region."""

    def __init__(self, xi, zeta_image):
        self.xi, self.zeta_image = xi, zeta_image
        super().__init__(
            f"dual image ({xi}, {zeta_image}) outside allowed region; "
            "source is not in the dualizable subset"
        )


class ParseError(KeoError):
    """Malformed expression text; carries the source position."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at position {position}{hint}")


class WrongMomentumCount(KeoError):
    """An additive term does not contain exactly two momentum factors."""

    def __init__(self, term_index, count):
        self.term_index = term_index
        self.count = count
        super().__init__(
            f"term {term_index} has {count} momentum factor(s), expected exactly 2"
        )


class NonPositiveMass(KeoError):
    """Mass profile is non-positive at a grid point."""

    def __init__(self, index, x, value):
        self.index, self.x, self.value = index, x, value
        super().__init__(
            f"mass not positive at grid index {index} (x = {x}): 1/m = {value}"
        )


class NotSymmetric(KeoError):
    """Eigensolver input matrix is not symmetric."""

    def __init__(self, max_asymmetry):
        self.max_asymmetry = max_asymmetry
        super().__init__(
            f"matrix is not symmetric (max |A - A^T| = {max_asymmetry:.3e})"
        )
