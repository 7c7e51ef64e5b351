"""Property-based oracles: parser fixpoints, exact inversion round trips,
the duality involution, classification against its reference, surd
comparisons, the exact symmetry of every Hermitian assembly, assembly
against its whole-band reference to the byte, `solve` against its
grid-coordinate reference and the shared continuum spectrum of orderings
at one (xi, zeta), checked on generated inputs instead of hand-picked
catalog entries."""

from fractions import Fraction as F

import numpy as np
import pytest

# a hypothesis that is absent or fails to import skips the module
hypothesis = pytest.importorskip("hypothesis", exc_type=ImportError)

from hypothesis import assume, example, given, settings, strategies as st

from assembly_reference import reference_assemble_linear, reference_assemble_terms
from classify_reference import reference_classify
from spectra_reference import reference_solve
from pdmkeo.discretize import AssembledOperator, Grid
from pdmkeo.classify import classify, dual, in_allowed_region, invert, to_duality
from pdmkeo.errors import DualOutsideAllowedRegion, KeoError, OutsideAllowedRegion
from pdmkeo.ordering import (
    CATALOG_NAMES, BuildingBlock, OrderingSpec, catalog, linear_params, spec,
)
from pdmkeo.parser import parse, print_canonical
from pdmkeo.spectra import solve
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


@st.composite
def points_on_curves(draw):
    """xi in [-1/2, 0] and zeta on one of the boundary curves, allowed or not."""
    xi = -draw(unit) / 2
    return xi, draw(st.sampled_from(
        [xi * xi, 2 * xi * xi, (xi + F(1, 2)) ** 2 + xi * xi, -xi / 2, F(0)]))


wide = st.fractions(min_value=-1, max_value=1, max_denominator=24)


@settings(max_examples=300, deadline=None)
@given(st.one_of(allowed_points(), points_on_curves(), st.tuples(wide, wide)))
def test_classify_matches_the_reference(point):
    try:
        expected = reference_classify(*point)
    except OutsideAllowedRegion as exc:
        with pytest.raises(OutsideAllowedRegion) as got:
            classify(*point)
        assert str(got.value) == str(exc)
        assert not in_allowed_region(*point)
        return
    assert classify(*point) == expected
    assert in_allowed_region(*point)


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


@st.composite
def unmirrored_hermitian(draw):
    """eta = 0 without mirrored pairs: two terms whose gamma - alpha have
    opposite signs, weighted to cancel, plus a symmetric filler."""
    quarter = st.fractions(min_value=-1, max_value=0, max_denominator=4)
    a1, g1 = draw(quarter), draw(quarter.filter(lambda g: g != 0))
    a1 = min(a1, g1 - F(1, 4))  # gamma - alpha > 0
    a2, g2 = draw(quarter), draw(quarter)
    g2 = min(g2, a2 - F(1, 4))  # gamma - alpha < 0
    w1 = draw(st.fractions(min_value=F(1, 8), max_value=F(1, 2), max_denominator=8))
    w2 = w1 * (g1 - a1) / (a2 - g2)
    a3 = draw(quarter)
    return spec([(w1, a1, -1 - a1 - g1, g1), (w2, a2, -1 - a2 - g2, g2),
                 (1 - w1 - w2, a3, -1 - 2 * a3, a3)])


@settings(max_examples=60, deadline=None)
@given(unmirrored_hermitian(), st.sampled_from(["central", "staggered"]), st.integers(3, 40))
def test_every_hermitian_ordering_assembles_exactly_symmetric(s, scheme, n):
    from pdmkeo.discretize import Grid, assemble_terms
    from pdmkeo.profiles import gaussian_bump, lorentzian

    assert linear_params(s).eta == 0
    for prof in (lorentzian(m0=1, lam=1), gaussian_bump(m0=1, lam=1, sigma=F(1, 4))):
        a = assemble_terms(s, prof, Grid(-1.0, 1.0, n), scheme=scheme).matrix
        assert (a == a.T).all()


@st.composite
def builtin_profiles(draw):
    """A built-in profile with lam up to 1000 and a width from 1 down to 1/1000."""
    from pdmkeo.profiles import PROFILES

    name = draw(st.sampled_from(sorted(PROFILES)))
    if name == "smoothed_step":  # needs |lam| < 1
        lam = draw(st.fractions(-F(99, 100), F(99, 100), max_denominator=100))
    else:
        lam = draw(st.fractions(F(1, 100), 1000, max_denominator=100))
    width = F(1, draw(st.integers(1, 1000)))
    return _built_in(name, lam, width)


def _built_in(name, lam, width):
    """The built-in profile `name` with its strength lam (m0 for the
    constant) and, if it has one, its width."""
    from pdmkeo.profiles import PROFILES

    return PROFILES[name](**{
        "constant": {"m0": lam},
        "lorentzian": {"lam": lam},
        "gaussian_bump": {"lam": lam, "sigma": width},
        "smoothed_step": {"lam": lam, "sigma": width},
        "cosine_bump": {"lam": lam, "half_width": width},
    }[name])


@st.composite
def assembled_orderings(draw, surd_weights=True):
    """A catalog ordering (parameterized families included), a class
    inversion (quadratic-surd exponents in classes vR and I), two terms
    with quadratic-surd weights (unless `surd_weights` is false: their
    means, and so their linear parameters, may be irrational), a parsed
    text, an unmirrored Hermitian ordering or any generated one (mostly
    eta != 0)."""
    kind = draw(st.sampled_from([
        k for k in ["catalog", "inverted", "surd weights", "parsed", "unmirrored", "generated"]
        if surd_weights or k != "surd weights"]))
    if kind == "catalog":
        name = draw(st.sampled_from(CATALOG_NAMES))
        arity = {"MB": 1, "LKDA": 1, "DA": 1, "vR": 2}.get(name, 0)
        args = [draw(small) for _ in range(arity)]
        assume(name != "DA" or args != [-1])  # DA(-1) has diverging weights
        return catalog(name, *args)
    if kind == "inverted":
        xi, zeta = draw(allowed_points())
        region = draw(st.sampled_from(sorted(label.region for label in classify(xi, zeta))))
        return invert(xi, zeta, region)
    if kind == "surd weights":
        w = Surd(F(1, 2), draw(small), draw(radicands))
        (a1, g1), (a2, g2) = (draw(st.tuples(small, small)) for _ in range(2))
        return spec([(w, a1, -1 - a1 - g1, g1), (1 - w, a2, -1 - a2 - g2, g2)])
    if kind == "parsed":
        return parse(print_canonical(draw(orderings())))
    if kind == "unmirrored":
        return draw(unmirrored_hermitian())
    return draw(orderings())


@settings(max_examples=300, deadline=None)
@given(assembled_orderings(), builtin_profiles(), st.integers(3, 60),
       st.sampled_from(["central", "staggered"]),
       st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e150]),
                 st.floats(-10, 10)))
def test_assembly_matches_the_whole_band_reference_to_the_byte(s, prof, n, scheme, hbar):
    """`assemble_terms` adds each term into the three diagonals it reaches;
    the reference multiplies whole band arrays. The entries, the signed
    zeros in the cells outside the matrix and the refusals agree exactly."""
    from pdmkeo.discretize import assemble_terms

    _assert_matches_reference(assemble_terms, reference_assemble_terms, s, prof, n, hbar,
                              scheme=scheme)


def _assert_matches_reference(assemble, reference, first, prof, n, hbar, **kw):
    """assemble(first, prof, grid, ...) equals reference(...) to the byte,
    or both refuse with the same message."""
    import numpy as np

    from pdmkeo.discretize import Grid

    grid = Grid(-1.0, 1.0, n)
    # an overflow is compared as the refusal it ends in, not as numpy's warning
    with np.errstate(all="ignore"):
        try:
            expected = reference(first, prof, grid, hbar=hbar, **kw)
        except ValueError as exc:  # entries that are not finite
            with pytest.raises(ValueError) as got:
                assemble(first, prof, grid, hbar=hbar, **kw)
            assert str(got.value) == str(exc)
            return
        got = assemble(first, prof, grid, hbar=hbar, **kw)
    assert got.bands.tobytes() == expected.bands.tobytes()


@settings(max_examples=300, deadline=None)
@given(assembled_orderings(surd_weights=False), builtin_profiles(), st.integers(3, 60),
       st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e150]),
                 st.floats(-10, 10)))
def test_linear_assembly_matches_the_whole_band_reference_to_the_byte(s, prof, n, hbar):
    """`assemble_linear` writes the core, the effective potential and the
    first-order term into the diagonals they reach; the reference adds
    whole band arrays. The entries, the signed zeros in every other cell
    and the refusals agree exactly."""
    from pdmkeo.discretize import assemble_linear

    _assert_matches_reference(assemble_linear, reference_assemble_linear, linear_params(s),
                              prof, n, hbar)


@settings(max_examples=50, deadline=None)
@given(builtin_profiles(),
       st.lists(st.fractions(-3, 3, max_denominator=100), min_size=2, max_size=2, unique=True),
       st.integers(3, 2000))
def test_builtin_profiles_pass_the_derivative_probe_on_any_grid(prof, ends, n):
    # their derivatives are exact (tests/test_symbolic.py), so a refusal is
    # the probe's fault
    from pdmkeo.discretize import Grid, assemble_linear

    x_min, x_max = sorted(ends)
    assemble_linear(linear_params(catalog("YY")), prof, Grid(float(x_min), float(x_max), n))


@st.composite
def hermitian_at_allowed_points(draw):
    """eta = 0 orderings with every alpha and gamma in [-1/2, 0] and every
    weight >= 0, so that (xi, zeta) is allowed (alpha >= -1/2 and gamma <= 0
    give alpha gamma <= -gamma/2): a mirrored von Roos pair, or two
    unmirrored terms whose gamma - alpha cancel plus a symmetric filler."""
    exponent = st.fractions(min_value=F(-1, 2), max_value=0, max_denominator=8)
    pair = st.lists(exponent, min_size=2, max_size=2, unique=True).map(sorted)
    if draw(st.booleans()):
        a, g = draw(exponent), draw(exponent)
        return spec([(F(1, 2), a, -1 - a - g, g), (F(1, 2), g, -1 - a - g, a)])
    a1, g1 = draw(pair)  # gamma - alpha > 0
    g2, a2 = draw(pair)  # gamma - alpha < 0
    d1, d2 = g1 - a1, a2 - g2
    total = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1)]))
    a3 = draw(exponent)
    return spec([(total * d2 / (d1 + d2), a1, -1 - a1 - g1, g1),
                 (total * d1 / (d1 + d2), a2, -1 - a2 - g2, g2),
                 (1 - total, a3, -1 - 2 * a3, a3)])


@settings(max_examples=25, deadline=None)
@given(hermitian_at_allowed_points(), st.data())
def test_orderings_at_one_point_share_the_continuum_spectrum(s, data):
    """An ordering and its inversion in any class of its (xi, zeta) differ
    only by discretization error: their raw eigenvalue gap falls at O(h^2)
    and their extrapolated eigenvalues agree within the error estimates."""
    from pdmkeo.discretize import Grid
    from pdmkeo.profiles import gaussian_bump
    from pdmkeo.spectra import harmonic, richardson, spectrum_of_spec

    xi, zeta, eta = linear_params(s).as_tuple()
    assert eta == 0
    region = data.draw(st.sampled_from(sorted(label.region for label in classify(xi, zeta))))
    other = invert(xi, zeta, region)
    assert linear_params(other) == linear_params(s)
    prof, pot = gaussian_bump(m0=1, lam=1, sigma=F(1, 2)), harmonic(4)
    grid = Grid(-2.0, 2.0, 100)
    (a1, a2), (b1, b2) = (
        [spectrum_of_spec(t, prof, pot, g, 3).eigenvalues for g in (grid, grid.refined())]
        for t in (s, other)
    )
    for j in range(3):
        coarse, fine = abs(a1[j] - b1[j]), abs(a2[j] - b2[j])
        # a gap this small is rounding, or the two operators are the same
        floor = 1e-9 * abs(a1[j])
        if coarse > floor:
            assert 3.5 <= coarse / fine <= 4.5
        else:
            assert fine <= floor
        (ea, da), (eb, db) = richardson(a1[j], a2[j]), richardson(b1[j], b2[j])
        assert abs(ea - eb) <= da + db


@st.composite
def resolved_profiles(draw):
    """A built-in profile whose features (widths of 1/2 and more) a grid of
    400 points on an interval of length up to 3 resolves."""
    from pdmkeo.profiles import PROFILES

    name = draw(st.sampled_from(sorted(PROFILES)))
    lam = draw(st.fractions(*{"constant": (F(1, 4), 4), "lorentzian": (0, 3),
                              "smoothed_step": (F(-3, 4), F(3, 4))}.get(name, (F(-1, 2), 3)),
                            max_denominator=20))
    width = draw(st.fractions(F(1, 2), 2, max_denominator=20))
    return _built_in(name, lam, width)


@settings(max_examples=40, deadline=None)
@given(assembled_orderings(surd_weights=False).filter(lambda s: linear_params(s).eta == 0),
       resolved_profiles(), st.fractions(-2, 1, max_denominator=20),
       st.fractions(1, 3, max_denominator=20), st.sampled_from([1.0, 0.5]))
def test_staggered_levels_converge_to_the_exact_levels(s, prof, a, length, hbar):
    """y = int sqrt(m) dx and psi = m^(1/4) phi map the ordering at
    (xi, zeta) = (-1/4, 1/16), MM's point, to a free particle in y. With
    V = V_eff(-1/4 - xi, 1/16 - zeta) any eta = 0 ordering is at that point,
    so its Dirichlet levels on [a, b] are E_j = (hbar j pi / L)^2 / 2 with
    L = int_a^b sqrt(m) dx: the staggered spectrum reaches them at order 2,
    and Richardson extrapolation comes closer than the finer grid. A level
    whose h^2 error cancels to under a quarter of the free particle's,
    E_j (j pi h / (b - a))^2 / 12, shows its h^4 term in the observed
    order (about one draw in a hundred); there only that size is checked."""
    import math

    import numpy as np
    from scipy.integrate import quad

    from pdmkeo.discretize import Grid, effective_potential
    from pdmkeo.ordering import LinearParams
    from pdmkeo.spectra import PotentialProfile, richardson, spectrum_of_spec

    xi, zeta, _ = linear_params(s).as_tuple()
    shift = LinearParams(F(-1, 4) - xi, F(1, 16) - zeta, 0)
    potential = PotentialProfile("to_mm", lambda x: effective_potential(shift, prof, x, hbar))
    x_min, x_max = float(a), float(a + length)
    length_y, _ = quad(lambda x: math.sqrt(1.0 / prof.jet(np.array([x]))[0][0]), x_min, x_max,
                       epsabs=0, epsrel=1e-13)
    j = np.arange(1, 4)
    exact = (hbar * j * math.pi / length_y) ** 2 / 2
    grid = Grid(x_min, x_max, 400)
    coarse, fine = (np.array(spectrum_of_spec(s, prof, potential, g, 3, hbar=hbar).eigenvalues)
                    for g in (grid, grid.refined()))
    order = np.log2(np.abs(coarse - exact) / np.abs(fine - exact))
    natural = exact * (j * math.pi * grid.h / (x_max - x_min)) ** 2 / 12
    clean = np.abs(coarse - exact) >= natural / 4
    assert np.all(np.abs(order[clean] - 2) <= 0.05), order
    assert np.all(np.abs(fine - exact)[~clean] <= natural[~clean] / 4)
    extrapolated = np.array([richardson(c, f)[0] for c, f in zip(coarse, fine)])
    assert np.all(np.abs(extrapolated - exact) < np.abs(fine - exact))


@st.composite
def tridiagonals(draw, entries=st.one_of(st.floats(-1, 1), st.integers(-2, 2).map(float))):
    """A symmetric tridiagonal operator of 3-80 points with entries in
    [-1, 1], small integers at times so that levels can tie, and k."""
    n = draw(st.integers(3, 80))
    diagonal = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    bands = np.array([[0.0, *off], diagonal, [*off, 0.0]])
    return AssembledOperator(bands, Grid(-1.0, 1.0, n), 1.0), draw(st.integers(1, n))


# a dense eigh is 12.6 eps max|H| off this H's lowest level, against its
# 40-digit value; bisection is 0.12 eps max|H| off, and `solve` 0.88
_SUB = [
    -1.0, 0.6834670555320339, 0.5, -1.0, -0.7360588965432839, -0.6641767940188039, -2.0, -2.0,
    -2.0, 0.5751036989195719, -0.5570606942833182, -0.1166469215330499, 2.0, -1.0, 1.0, 1.0,
    0.3187, 2.0, 1.0, -0.1916,
]
_DIAGONAL = [
    -0.1354608625052831, 0.2602498353728173, 2.0, 0.6985099128369328, 0.0, 0.0, 0.0,
    -0.47882481670402555, -1.0, -1.0, -1.0, 0.39374861890201607, -2.0, -1.0, -2.0,
    -0.4125307623220621, 1.0, 1.0, 0.0, -2.0, 0.0,
]
DENSE_EIGH_MISSES = AssembledOperator(np.array([[0.0, *_SUB], _DIAGONAL, [*_SUB, 0.0]]),
                                      Grid(-1.0, 1.0, 21), 1.0)


# every entry subnormal: `solve` and bisection differ by one subnormal spacing,
# and so do two of the residuals from 0, while every bound below that scales
# with H underflows to 0
_A = 2.2250738585e-313
ALL_SUBNORMAL = AssembledOperator(np.array([[0.0, 0.0, _A], [0.0, 0.0, _A], [0.0, _A, 0.0]]),
                                  Grid(-1.0, 1.0, 3), 1.0)


@example((DENSE_EIGH_MISSES, 1))
@example((ALL_SUBNORMAL, 3))
@settings(max_examples=300, deadline=None)
@given(tridiagonals())
def test_solve_matches_bisection_to_rounding(case):
    import math

    import scipy.linalg

    h, k = case
    scale = np.max(np.abs(h.bands)) or 1.0
    # bisection to rounding, since a dense eigh can be off by more than the
    # bound below (see the example above); on H scaled by a power of two,
    # exactly, since bisection squares the off-diagonals and, with entries
    # below ~1e-154, returns wrong levels
    shift = math.frexp(scale)[1]
    expected = np.ldexp(scipy.linalg.eigvalsh_tridiagonal(
        np.ldexp(h.bands[1], -shift), np.ldexp(h.bands[2, :-1], -shift), lapack_driver="stebz",
    ), shift)
    res = solve(h, k)
    error = np.max(np.abs(np.array(res.eigenvalues) - expected[:k]))
    # one subnormal spacing on top of each bound: on an all-subnormal H each
    # of them underflows to 0
    tiny = np.finfo(float).smallest_subnormal
    # a level is exact to rounding once its neighbours are outside the bracket
    if np.all(np.diff(expected[:k + 1]) > 2.0**-30 * scale):
        assert error <= 8 * np.finfo(float).eps * np.max(np.abs(expected)) + tiny
    assert error <= 2.0**-39 * scale + tiny
    assert max(res.residuals) <= 1e-12 * scale + tiny


# nonzero entries within 2^9 of each other: scaled by 10^p, |p| <= 60, an
# eigenvector's products with them stay normal floats in H's units and in
# the scaled ones
NORMAL_RANGE = st.one_of(st.floats(2.0**-8, 1), st.floats(-1, -2.0**-8),
                         st.integers(-2, 2).map(float))


def _assert_solve_matches_reference(h, k, scheme):
    """`solve` and the reference that finishes in grid coordinates agree
    to the byte on a staggered H, or refuse it alike. On a central H the
    two blocks' entries are summed in another order: each level agrees
    within 4 eps max(max|H|, |level|) (the levels above max|H| have
    rounding errors of their own size), and the residuals, as a set, since
    the members of a degenerate pair can change places, within 4 eps max|H|."""
    try:
        expected = reference_solve(h, k)
    except KeoError as exc:
        with pytest.raises(type(exc)) as got:
            solve(h, k)
        assert str(got.value) == str(exc)
        return
    res = solve(h, k)
    got = (np.array(res.eigenvalues), np.array(res.residuals), res.provenance["max_residual"])
    if scheme == "staggered":
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in expected]
    else:
        eps, scale = np.finfo(float).eps, np.max(np.abs(h.bands))
        assert np.all(np.abs(got[0] - expected[0]) <= 4 * eps * np.maximum(scale, np.abs(got[0])))
        assert np.max(np.abs(np.sort(got[1]) - np.sort(expected[1]))) <= 4 * eps * scale
        assert abs(got[2] - expected[2]) <= 4 * eps


@settings(max_examples=200, deadline=None)
@given(tridiagonals(NORMAL_RANGE), st.integers(-60, 60))
def test_solve_matches_the_grid_coordinate_reference_on_tridiagonals(case, p):
    h, k = case
    h = AssembledOperator(h.bands * 10.0**p, h.grid, 1.0)
    _assert_solve_matches_reference(h, k, "staggered")


@settings(max_examples=200, deadline=None)
@given(assembled_orderings(), builtin_profiles(), st.integers(3, 60),
       st.sampled_from(["central", "staggered"]), st.sampled_from(["zero", "harmonic:k=4"]),
       st.sampled_from([1.0, 1e-100, 1e100]), st.data())
def test_solve_matches_the_grid_coordinate_reference_on_assembled_operators(
        s, prof, n, scheme, potential, hbar, data):
    from pdmkeo.discretize import assemble_terms
    from pdmkeo.spectra import hamiltonian, make_potential

    try:
        keo = assemble_terms(s, prof, Grid(-1.0, 1.0, n), hbar=hbar, scheme=scheme)
    except ValueError:  # entries that are not finite
        return
    h = hamiltonian(keo, make_potential(potential))
    _assert_solve_matches_reference(h, data.draw(st.integers(1, n)), scheme)
