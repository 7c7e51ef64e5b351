"""Property-based oracles for the exact algebra: parser fixpoints, exact
inversion round trips, the duality involution and surd comparisons,
checked on generated inputs instead of hand-picked catalog entries."""

from fractions import Fraction as F

import pytest

# a hypothesis that is absent or fails to import skips the module
hypothesis = pytest.importorskip("hypothesis", exc_type=ImportError)

from hypothesis import given, settings, strategies as st

from pdmkeo.classify import classify, dual, invert, to_duality
from pdmkeo.errors import DualOutsideAllowedRegion
from pdmkeo.ordering import BuildingBlock, OrderingSpec, linear_params
from pdmkeo.parser import parse, print_canonical
from pdmkeo.surds import Surd

small = st.fractions(min_value=-2, max_value=2, max_denominator=12)
unit = st.fractions(min_value=0, max_value=1, max_denominator=24)


@st.composite
def orderings(draw):
    """1-4 rational terms; the last weight makes the weights sum to 1, and
    beta makes each term's exponents sum to -1."""
    count = draw(st.integers(1, 4))
    weights = [draw(small) for _ in range(count - 1)]
    weights.append(1 - sum(weights, F(0)))
    terms = []
    for w in weights:
        alpha, gamma = draw(small), draw(small)
        terms.append(BuildingBlock(w, alpha, -1 - alpha - gamma, gamma))
    return OrderingSpec(tuple(terms))


@st.composite
def allowed_points(draw):
    """Rational (xi, zeta) with 1/4 >= -xi/2 >= zeta >= 0."""
    xi = -draw(unit) / 2
    zeta = draw(unit) * (-xi / 2)
    return xi, zeta


@settings(max_examples=100, deadline=None)
@given(orderings())
def test_print_parse_is_a_fixpoint(s):
    text = print_canonical(s)
    again = parse(text)
    assert print_canonical(again) == text
    assert linear_params(again) == linear_params(s)


@settings(max_examples=100, deadline=None)
@given(allowed_points())
def test_inversion_round_trips_in_every_class(point):
    xi, zeta = point
    labels = classify(xi, zeta)
    assert labels
    for label in labels:
        s = invert(xi, zeta, label.region)
        assert linear_params(s).as_tuple() == (xi, zeta, 0)
        if label.region in ("II", "III"):
            # the mixed term comes first; at a corner the one term left is
            # its partner (p(1/m)p or ZK), so the mixed weight is 0
            w = s.terms[0].w if len(s.terms) == 2 else 0
            assert 0 <= w <= F(1, 2)


@settings(max_examples=150, deadline=None)
@given(allowed_points())
def test_dual_is_an_involution_where_defined(point):
    d = to_duality(*point)
    try:
        image = dual(d)
    except DualOutsideAllowedRegion:
        return
    assert dual(image) == d


radicands = st.integers(1, 30)


@settings(max_examples=150, deadline=None)
@given(small, small, radicands, small, small, radicands)
def test_surd_order_and_equality_agree_with_mpmath(a1, b1, d1, a2, b2, d2):
    mpmath = pytest.importorskip("mpmath")
    x, y = Surd(a1, b1, d1), Surd(a2, b2, d2)
    with mpmath.workdps(50):
        def value(s):
            return (mpmath.mpf(s.a.numerator) / s.a.denominator
                    + mpmath.mpf(s.b.numerator) / s.b.denominator * mpmath.sqrt(s.d))

        diff = value(x) - value(y)
        tol = mpmath.mpf(10) ** -40
        assert (x == y) == (abs(diff) < tol)
        assert (x < y) == (diff < -tol)
        assert (y < x) == (diff > tol)
