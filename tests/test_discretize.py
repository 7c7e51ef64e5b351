import math
import warnings

import numpy as np
import pytest
from fractions import Fraction as F

from pdmkeo.discretize import (
    AssembledOperator,
    Grid,
    assemble_linear,
    assemble_terms,
    defect_convergence,
    derivative_matrix,
    effective_potential,
    equivalence_defect,
    to_csv,
    to_json_dict,
)
from pdmkeo.errors import NonPositiveMass
from pdmkeo.ordering import LinearParams, catalog, linear_params, spec
from pdmkeo.profiles import MassProfile, constant, cosine_bump, lorentzian, make_profile
from pdmkeo.surds import Surd

BUMP = lambda x: (1 - x**2) ** 2

HERMITIAN_NAMES = (
    "BDD", "GW", "ZK", "MM", "W", "LK", "Lal", "YY",
    "vR(-1/4,-1/2)", "MB(-1/3)", "LKDA(-1/3)", "DA(-1/2)",
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)
    inf, nan = float("inf"), float("nan")
    # the last pair has finite ends but overflows the spacing
    for x_min, x_max in ((0.0, inf), (-inf, 0.0), (-inf, inf), (nan, 1.0), (0.0, nan),
                         (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            Grid(x_min, x_max, 10)
    # finite spacings whose 1/h^2 is not: h*h underflows to zero, or its
    # reciprocal overflows
    for x_min, x_max in ((0.0, 1e-300), (0.0, 1e-160), (-1e-160, 1e-160)):
        with pytest.raises(ValueError, match="finite 1/h"):
            Grid(x_min, x_max, 3)
    Grid(0.0, 1e-150, 3)
    g = Grid(0.0, 1.0, 4)
    assert g.h == pytest.approx(0.2)
    assert g.points == pytest.approx([0.2, 0.4, 0.6, 0.8])
    assert len(g.midpoints) == 5


def test_grid_refuses_a_count_that_is_not_an_integer():
    for n in (5.5, 5.0):
        with pytest.raises(ValueError, match="need an integer n"):
            Grid(0.0, 1.0, n)
    assert Grid(0.0, 1.0, np.int64(5)).points.size == 5


def test_operator_refuses_bands_that_are_not_three_diagonals():
    g = Grid(0.0, 1.0, 6)
    cases = [(np.zeros((5, 6)), 1), (np.zeros((2, 6)), 1), (np.zeros((3, 5)), 1),
             (np.zeros((3, 7)), 1), (np.zeros((3, 6)), 0), (np.zeros((3, 6)), 6),
             (np.zeros((3, 6)), 2.5)]
    for bands, l in cases:
        with pytest.raises(ValueError) as exc:
            AssembledOperator(bands, g, 1.0, bandwidth=l)
        assert str(exc.value) == (
            "need bands of shape (3, n) and an integer bandwidth 1 <= l < n for n = 6, "
            f"got shape {bands.shape} and l = {l!r}")
    for l in (1, 5, np.int64(2)):
        assert AssembledOperator(np.zeros((3, 6)), g, 1.0, bandwidth=l).matrix.shape == (6, 6)


def test_derivative_matrix_small():
    d = derivative_matrix(Grid(0.0, 4.0, 3))
    assert d.tolist() == [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.5], [0.0, -0.5, 0.0]]


def test_derivative_matrix_antisymmetric():
    d = derivative_matrix(Grid(-2.0, 3.0, 37))
    assert np.max(np.abs(d + d.T)) == 0.0


def test_derivative_matrix_second_order():
    errs = []
    for n in (100, 200):
        g = Grid(0.0, np.pi, n)
        d = derivative_matrix(g)
        err = d @ np.sin(g.points) - np.cos(g.points)
        errs.append(np.max(np.abs(err[1:-1])))  # interior rows: boundary rows see the Dirichlet cut
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.3)


def test_constant_mass_bdd_is_wide_laplacian():
    g = Grid(-1.0, 1.0, 20)
    m0 = 2.0
    op = assemble_terms(catalog("BDD"), constant(2), g, scheme="central")
    d = derivative_matrix(g)
    expected = -(1.0 / (2 * m0)) * (d @ d)
    assert np.allclose(op.matrix, expected, rtol=1e-14, atol=0)


def test_mirrored_specs_symmetric_to_machine_precision():
    g = Grid(-1.0, 1.0, 120)
    prof = lorentzian(m0=1, lam=1)
    for name in HERMITIAN_NAMES:
        a = assemble_terms(catalog(name), prof, g).matrix
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - a.T)) <= 1e-13 * scale, name


def test_staggered_scheme_symmetric_and_consistent():
    g = Grid(-1.0, 1.0, 150)
    prof = lorentzian(m0=1, lam=1)
    psi = BUMP(g.points)
    for name in ("ZK", "W", "YY"):
        a = assemble_terms(catalog(name), prof, g, scheme="staggered")
        b = assemble_terms(catalog(name), prof, g, scheme="central")
        assert np.max(np.abs(a.matrix - a.matrix.T)) <= 1e-13 * np.max(np.abs(a.matrix))
        # both schemes act identically on smooth vectors up to O(h^2)
        diff = np.linalg.norm((a.matrix - b.matrix) @ psi) / np.linalg.norm(psi)
        assert diff < 0.05


def test_nonpositive_mass_reports_grid_index():
    # positive on [-1, 1] but not on a wider grid
    shrinking = MassProfile("shrinking", lambda x: (2.0 - x**2, -2.0 * x, -2.0 * np.ones_like(x)))
    with pytest.raises(NonPositiveMass) as exc:
        assemble_terms(catalog("BDD"), shrinking, Grid(-3.0, 3.0, 11))
    assert exc.value.index == 0


def test_profile_probe_accepts_sharp_builtin_profiles():
    # every derivative here is exact (tests/test_symbolic.py); a probe step or
    # tolerance fixed in x refused about half of them, and a single scaled
    # step refused gaussian_bump at sigma = 1/1000 for n = 200, whose sample
    # at x ~ -0.005 sits in the tail of a bump the grid does not resolve
    widths = ("1", "1/4", "1/30", "1/100", "1/300", "1/1000")
    texts = [f"lorentzian:lam={lam}" for lam in ("1/10", "1", "10", "100", "1000")]
    for width in widths:
        texts += [f"smoothed_step:lam={lam},sigma={width}" for lam in ("1/10", "1/2", "-9/10")]
        for lam in ("1/10", "1", "10", "100", "1000"):
            texts += [f"gaussian_bump:lam={lam},sigma={width}",
                      f"cosine_bump:lam={lam},half_width={width}"]
    yy = linear_params(catalog("YY"))
    for n in (3, 200, 2000):
        for text in texts:
            assemble_linear(yy, make_profile(text), Grid(-1.0, 1.0, n))


def _with_wrong(profile, which, wrong):
    """`profile` with its jet component `which` (d_inv_m or dd_inv_m), a
    function of x, replaced by wrong(that function)."""
    i = ("inv_m", "d_inv_m", "dd_inv_m").index(which)
    replaced = wrong(lambda x: profile.jet(x)[i])

    def jet(x):
        parts = list(profile.jet(x))
        parts[i] = replaced(x)
        return tuple(parts)

    return MassProfile("wrong", jet)


@pytest.mark.parametrize("which", ["d_inv_m", "dd_inv_m"])
@pytest.mark.parametrize("error", [0.01, 0.1])
def test_profile_probe_refuses_wrong_derivatives(which, error):
    # checked where the derivatives are read, on the grid of the operator
    wrong = _with_wrong(lorentzian(m0=1, lam=1), which, lambda f: lambda x: (1 + error) * f(x))
    yy = linear_params(catalog("YY"))
    with pytest.raises(ValueError, match=f"'wrong': {which} disagrees"):
        assemble_linear(yy, wrong, Grid(-1.0, 1.0, 50))
    with pytest.raises(ValueError, match=f"'wrong': {which} disagrees"):
        effective_potential(yy, wrong, np.linspace(-1.0, 1.0, 50))


def test_profile_probe_accepts_right_derivatives_far_from_zero():
    # x + h rounds to x at 1e16, and near 1e8 rounding x moves 1/m by more
    # than the tolerance over the step
    yy = linear_params(catalog("YY"))
    for x_min, x_max in ((0.0, 1e16), (1e8, 1e8 + 10)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assemble_linear(yy, cosine_bump(m0=1, lam=1), Grid(x_min, x_max, 45))
    # 1/m ~ x^2 near 1e154: the probe passes, and (1/m)'^2 and sums of two
    # samples of 1/m would overflow, though the operator's entries do not
    with np.errstate(all="raise"):
        op = assemble_linear(yy, lorentzian(m0=1, lam=1), Grid(0.0, 1e154, 45))
    assert np.isfinite(op.bands).all()


def _halved(profile):
    return MassProfile(profile.name, lambda x: tuple(v / 2 for v in profile.jet(x)))


@pytest.mark.parametrize("name", ["BDD", "YY", "W"])
@pytest.mark.parametrize("pathway", ["terms", "linear"])
def test_entries_near_the_float_limit_assemble_without_overflow(name, pathway):
    # near 1e154 sums of two samples of 1/m ~ x^2 and (1/m)'^2 overflow; each
    # sample is weighted before the sum and (1/m)'^2 m taken as du (du / u).
    # A term m^a p m^b p m^c scales with 1/m to the power -(a + b + c) = 1,
    # as does the linear form, so halving the jet halves every entry
    prof, grid = lorentzian(m0=1, lam=1), Grid(0.0, 1e154, 45)
    s = catalog(name)
    if pathway == "terms":
        build = lambda p: assemble_terms(s, p, grid)
    else:
        build = lambda p: assemble_linear(linear_params(s), p, grid)
    with np.errstate(all="raise"):
        op = build(prof)
        half = build(_halved(prof))
    np.testing.assert_allclose(op.bands, 2 * half.bands, rtol=1e-13, atol=0)


def test_a_mass_power_that_itself_overflows_is_still_refused():
    # DA(1) holds m^(-2) = (1/m)^2 ~ x^4, which overflows before any weighting
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="operator entries are not finite"):
            assemble_terms(catalog("DA(1)"), lorentzian(m0=1, lam=1), Grid(0.0, 1e154, 45))


@pytest.mark.parametrize("x_min, x_max", [(-1.0, 1.0), (1e8, 1e8 + 10)])
def test_profile_probe_refuses_a_slope_off_by_one_percent_far_from_zero(x_min, x_max):
    wrong = _with_wrong(cosine_bump(m0=1, lam=1), "d_inv_m", lambda f: lambda x: 1.01 * f(x))
    with pytest.raises(ValueError, match="'wrong': d_inv_m disagrees"):
        assemble_linear(linear_params(catalog("YY")), wrong, Grid(x_min, x_max, 45))


def test_profile_is_checked_on_the_grid_it_is_used_on():
    # 1/m = x - 3/2 is positive on [2, 3] only
    shifted = MassProfile("shifted", lambda x: (x - 1.5, np.ones_like(x), np.zeros_like(x)))
    yy = catalog("YY")
    for scheme in ("central", "staggered"):
        assemble_terms(yy, shifted, Grid(2.0, 3.0, 40), scheme=scheme)
    assemble_linear(linear_params(yy), shifted, Grid(2.0, 3.0, 40))
    psi = lambda x: ((x - 2) * (3 - x)) ** 4
    d1, d2 = (equivalence_defect(yy, shifted, Grid(2.0, 3.0, n), psi) for n in (200, 400))
    assert 3.5 <= d1 / d2 <= 4.5
    with pytest.raises(NonPositiveMass) as exc:
        assemble_terms(yy, shifted, Grid(-1.0, 1.0, 40))
    assert exc.value.index == 0


def test_derivatives_wrong_beyond_the_unit_window_are_refused_there():
    wrong = _with_wrong(lorentzian(m0=1, lam=1), "d_inv_m",
                        lambda f: lambda x: np.where(np.abs(x) > 1, 2.0, 1.0) * f(x))
    yy = catalog("YY")
    far = Grid(0.0, 3.0, 200)
    with pytest.raises(ValueError, match="'wrong': d_inv_m disagrees"):
        assemble_linear(linear_params(yy), wrong, far)
    with pytest.raises(ValueError, match="'wrong': d_inv_m disagrees"):
        equivalence_defect(yy, wrong, far, lambda x: (x * (3 - x)) ** 4)
    # the terms pathway reads 1/m only, and on [-1, 1] the derivative is right
    assemble_terms(yy, wrong, far)
    assemble_linear(linear_params(yy), wrong, Grid(-1.0, 1.0, 200))


def test_infinite_inverse_mass_is_a_nonpositive_mass():
    barrier = MassProfile(
        "barrier",
        lambda x: (np.where(np.abs(x - 1.5) < 0.2, np.inf, 1.0), np.zeros_like(x), np.zeros_like(x)),
    )
    g = Grid(0.0, 3.0, 20)
    first = int(np.flatnonzero(np.abs(g.points - 1.5) < 0.2)[0])
    yy = catalog("YY")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in ("central", "staggered"):
            with pytest.raises(NonPositiveMass) as exc:
                assemble_terms(yy, barrier, g, scheme=scheme)
            assert exc.value.index == first and exc.value.value == np.inf
        with pytest.raises(NonPositiveMass):
            assemble_linear(linear_params(yy), barrier, g)


def _bad_at(*xs, width):
    """1/m = 1 except -1 within `width` of each of xs."""
    def jet(x):
        near = np.any([np.abs(x - c) < width for c in xs], axis=0)
        return np.where(near, -1.0, 1.0), np.zeros_like(x), np.zeros_like(x)
    return MassProfile("bad", jet)


def test_a_nonpositive_mass_is_named_in_the_grid_it_was_sampled_on():
    # the staggered terms pathway samples the points and the midpoints in
    # one jet call; each refusal names the index and x in its own grid,
    # the grid points checked first
    g = Grid(0.0, 3.0, 20)
    quarter = g.h / 4
    yy = catalog("YY")
    cases = [
        (_bad_at(g.midpoints[7], width=quarter), 7, g.midpoints[7]),
        (_bad_at(g.midpoints[5], g.points[12], width=quarter), 12, g.points[12]),
    ]
    for profile, index, x in cases:
        with pytest.raises(NonPositiveMass) as exc:
            assemble_terms(yy, profile, g)
        assert (exc.value.index, exc.value.x, exc.value.value) == (index, x, -1.0)
        assert str(exc.value) == f"mass not positive at grid index {index} (x = {x}): 1/m = -1.0"
    # the central scheme reads the grid points only
    assemble_terms(yy, cases[0][0], g, scheme="central")


def test_a_grid_whose_refinement_is_refused_assembles():
    # 1/h^2 = 1e308 is finite, 1/(h/2)^2 is not: the midpoints are sampled
    # without building the refined grid
    g = Grid(0.0, 4e-154, 3)
    with pytest.raises(ValueError, match="finite 1/h"):
        g.refined()
    op = assemble_terms(catalog("BDD"), constant(4), g)
    assert np.isfinite(op.bands).all()


def test_non_finite_derivative_is_refused_by_name():
    wrong = _with_wrong(lorentzian(m0=1, lam=1), "dd_inv_m", lambda f: lambda x: f(x) * np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="'wrong': dd_inv_m is not finite at index 0"):
            assemble_linear(linear_params(catalog("YY")), wrong, Grid(-1.0, 1.0, 20))


def test_surd_exponents_assemble_without_rational_means():
    # xi = a is irrational, so linear_params refuses the spec, but eta = 0
    a = Surd(0, F(-1, 4), 2)
    s = spec([(1, a, -1 - 2 * a, a)])
    op = assemble_terms(s, lorentzian(m0=1, lam=1), Grid(-1.0, 1.0, 12))
    assert op.provenance["eta"] == "0"
    assert np.array_equal(op.matrix, op.matrix.T)
    with pytest.raises(ArithmeticError):
        linear_params(s)


def test_effective_potential_constant_mass_vanishes():
    lp = LinearParams(F(-1, 2), F(1, 4), 0)
    x = np.linspace(-1, 1, 11)
    assert np.all(effective_potential(lp, constant(3), x) == 0)


def test_effective_potential_lorentzian_at_origin():
    prof = lorentzian(m0=1, lam=1)
    for xi, zeta in ((F(-1, 3), F(1, 6)), (F(-1, 2), F(1, 4)), (F(-1, 4), F(0))):
        lp = LinearParams(xi, zeta, 0)
        assert effective_potential(lp, prof, 0.0) == pytest.approx(float(xi), rel=1e-12)
        assert effective_potential(lp, prof, 0.0, hbar=2.0) == pytest.approx(4 * float(xi), rel=1e-12)


def test_effective_potential_keeps_the_shape_of_x():
    lp, prof = LinearParams(F(-1, 2), F(1, 4), 0), lorentzian(m0=1, lam=1)
    assert effective_potential(lp, prof, []).shape == (0,)
    x = np.linspace(-2.0, 2.0, 12)
    assert np.array_equal(effective_potential(lp, prof, x.reshape(3, 4)),
                          effective_potential(lp, prof, x).reshape(3, 4))


def test_effective_potential_zero_params_everywhere():
    prof = lorentzian(m0=1, lam=1)
    lp = LinearParams(0, 0, 0)
    assert np.all(effective_potential(lp, prof, np.linspace(-2, 2, 9)) == 0)


def test_assemble_linear_zero_params_is_bare_kinetic():
    g = Grid(-1.0, 1.0, 40)
    prof = lorentzian(m0=1, lam=1)
    op = assemble_linear(LinearParams(0, 0, 0), prof, g)
    # -(1/2) d/dx u d/dx = (1/2) G^T diag(u) G, with G the forward difference
    # from the grid points (and the Dirichlet ends) to the midpoints
    grad = (np.eye(g.n + 1, g.n) - np.eye(g.n + 1, g.n, k=-1)) / g.h
    expected = 0.5 * grad.T @ (prof.jet(g.midpoints)[0][:, None] * grad)
    # banded fill and BLAS product round in different orders: ulp-level only
    assert np.allclose(op.matrix, expected, rtol=1e-14, atol=1e-14)


def test_assemble_linear_constant_mass_matches_terms_bitwise():
    g = Grid(-1.0, 1.0, 30)
    prof = constant(1)
    a = assemble_terms(catalog("BDD"), prof, g).matrix
    b = assemble_linear(LinearParams(0, 0, 0), prof, g).matrix
    assert np.array_equal(a, b)


def test_equivalence_defect_trivial_cases():
    g = Grid(-1.0, 1.0, 50)
    assert equivalence_defect(catalog("W"), constant(1), g, BUMP) == 0.0
    assert equivalence_defect(catalog("BDD"), lorentzian(m0=1, lam=1), g, BUMP) == 0.0


def _counting(sizes):
    """lorentzian, recording the size of each jet call in `sizes`."""
    base = lorentzian(m0=1, lam=1)

    def jet(x):
        sizes.append(np.size(x))
        return base.jet(x)

    return MassProfile("counting", jet)


def test_equivalence_defect_samples_the_jet_once_per_grid():
    sizes = []
    g = Grid(-1.0, 1.0, 50)
    equivalence_defect(catalog("YY"), _counting(sizes), g, BUMP)
    # the 2n + 1 half-step points, for both pathways, then the derivative
    # probe's shifted points
    assert len(sizes) == 2 and sizes[0] == 2 * g.n + 1


def test_assemble_linear_samples_the_jet_once_and_probes_once():
    sizes = []
    g = Grid(-1.0, 1.0, 50)
    assemble_linear(linear_params(catalog("YY")), _counting(sizes), g)
    assert len(sizes) == 2 and sizes[0] == 2 * g.n + 1
    # the staggered terms pathway reads no derivative, so it does not probe
    sizes.clear()
    assemble_terms(catalog("YY"), _counting(sizes), g)
    assert sizes == [2 * g.n + 1]


@pytest.mark.parametrize("name", ["YY", "BDD", "DA(-1/2)", "vR(-1/4,-1/2)", "MB(-1/3)", "eta"])
@pytest.mark.parametrize("profile", ["lorentzian", "gaussian_bump", "cosine_bump", "smoothed_step"])
def test_equivalence_defect_is_the_defect_of_the_public_assemblies(name, profile):
    # "eta": an eta = 1/2 ordering, which adds the first-order term
    s = catalog(name) if name != "eta" else spec([(F(1, 2), -1, 0, 0), (F(1, 2), 0, -1, 0)])
    prof = make_profile(profile)
    for g, hbar in ((Grid(-1.0, 1.0, 37), 1.0), (Grid(-0.5, 2.0, 120), 0.3)):
        psi = BUMP(g.points)
        a = assemble_terms(s, prof, g, hbar=hbar)
        b = assemble_linear(linear_params(s), prof, g, hbar=hbar)
        expected = float(np.linalg.norm(a.applied_to(psi) - b.applied_to(psi)) / np.linalg.norm(psi))
        assert equivalence_defect(s, prof, g, BUMP, hbar=hbar) == expected


def test_equivalence_defect_refuses_non_finite_values():
    g = Grid(-1.0, 1.0, 50)
    prof = lorentzian(m0=1, lam=1)
    cases = [
        (lambda x: np.full_like(x, np.nan), 1.0),  # ||psi|| is NaN
        (lambda x: np.full_like(x, 1e300), 1.0),  # ||psi|| overflows
        # ||psi|| is finite, but H psi overflows in both pathways
        (lambda x: 1e150 * BUMP(x), 1e100),
    ]
    with np.errstate(all="ignore"):
        assert math.isfinite(float(np.linalg.norm(cases[2][0](g.points))))
        for psi, hbar in cases:
            with pytest.raises(ValueError, match="not finite"):
                equivalence_defect(catalog("YY"), prof, g, psi, hbar=hbar)


def test_operators_with_overflowing_entries_are_refused():
    # hbar and the grid are each fine, but hbar^2/h^2 is not a float
    g = Grid(0.0, 1e-60, 4)
    prof = lorentzian(m0=1, lam=1)
    yy = catalog("YY")
    with np.errstate(all="ignore"):
        for scheme in ("central", "staggered"):
            with pytest.raises(ValueError, match="operator entries are not finite"):
                assemble_terms(yy, prof, g, hbar=1e100, scheme=scheme)
        with pytest.raises(ValueError, match="operator entries are not finite"):
            assemble_linear(linear_params(yy), prof, g, hbar=1e100)
        assert np.isfinite(assemble_terms(yy, prof, g, hbar=1e60).bands).all()


def test_defect_convergence_on_constant_mass_has_no_order():
    conv = defect_convergence(catalog("W"), constant(1), Grid(-1.0, 1.0, 50), BUMP)
    assert (conv.defect_n, conv.n_refined, conv.defect_refined) == (0.0, 101, 0.0)
    assert conv.ratio is None and conv.observed_order is None


def test_defect_convergence_is_second_order():
    yy, prof, g = catalog("YY"), cosine_bump(m0=1, lam=1), Grid(-1.0, 1.0, 200)
    conv = defect_convergence(yy, prof, g, BUMP)
    assert conv.defect_n == equivalence_defect(yy, prof, g, BUMP)
    assert conv.defect_refined == equivalence_defect(yy, prof, g.refined(), BUMP)
    assert conv.ratio == conv.defect_n / conv.defect_refined
    assert conv.observed_order == math.log2(conv.ratio)
    assert abs(conv.observed_order - 2) <= 0.05


def test_equivalence_defect_second_order_on_flat_profile():
    prof = cosine_bump(m0=1, lam=1)
    d1 = equivalence_defect(catalog("ZK"), prof, Grid(-1.0, 1.0, 200), BUMP)
    d2 = equivalence_defect(catalog("ZK"), prof, Grid(-1.0, 1.0, 400), BUMP)
    assert 3.5 <= d1 / d2 <= 4.5


def test_equivalence_defect_second_order_on_sloped_profile():
    # (1/m)' != 0 at the interval ends: the staggered pathways still agree
    # at O(h^2) there (D diag(b) D met the ends at O(h), a ratio near 2^1.5)
    prof = lorentzian(m0=1, lam=1)
    g = Grid(-1.0, 1.0, 200)
    d1 = equivalence_defect(catalog("ZK"), prof, g, BUMP)
    d2 = equivalence_defect(catalog("ZK"), prof, g.refined(), BUMP)
    assert 3.5 <= d1 / d2 <= 4.5


def test_same_point_orderings_agree_at_second_order():
    # LK and W share (xi, zeta) = (-1/4, 0): terms-path matrices differ but act
    # identically on smooth vectors up to O(h^2), even on sloped profiles
    prof = lorentzian(m0=1, lam=1)
    diffs = []
    for n in (200, 400):
        g = Grid(-1.0, 1.0, n)
        psi = BUMP(g.points)
        a = assemble_terms(catalog("LK"), prof, g).matrix
        b = assemble_terms(catalog("W"), prof, g).matrix
        diffs.append(np.linalg.norm((a - b) @ psi) / np.linalg.norm(psi))
    assert 3.5 <= diffs[0] / diffs[1] <= 4.5


def test_nonhermitian_assembly_is_real():
    prof = lorentzian(m0=1, lam=1)
    s = spec([(1, -1, 0, 0)])
    lp = linear_params(s)
    for n in (30, 300):
        g = Grid(-1.0, 1.0, n)
        for hbar in (1.0, 2.0):
            for scheme in ("central", "staggered"):
                assert assemble_terms(s, prof, g, hbar=hbar, scheme=scheme).bands.dtype == np.float64
            op = assemble_linear(lp, prof, g, hbar=hbar)
            assert op.bands.dtype == np.float64
            # the kinetic core is symmetric, so the linear pathway's
            # antisymmetric part is that of the first-order term
            # eta (hbar^2/2) diag(u') D, up to the rounding of the shared cells
            b = op.matrix
            first_order = float(lp.eta) * (hbar**2 / 2.0) * (
                prof.jet(g.points)[1][:, None] * derivative_matrix(g)
            )
            assert np.allclose((b - b.T) / 2, (first_order - first_order.T) / 2,
                               rtol=0, atol=1e-14 * np.max(np.abs(b)))


def test_antisymmetric_parts_track_hermiticity_defect():
    # single non-Hermitian term (-1, 0, 0): the antisymmetric parts of the two
    # pathways act identically on smooth vectors up to O(h^2)
    prof = cosine_bump(m0=1, lam=1)
    s = spec([(1, -1, 0, 0)])
    lp = linear_params(s)
    assert lp.eta == 1
    diffs = []
    for n in (200, 400):
        g = Grid(-1.0, 1.0, n)
        psi = BUMP(g.points)
        a = assemble_terms(s, prof, g).matrix
        b = assemble_linear(lp, prof, g).matrix
        ka = (a - a.T) / 2
        kb = (b - b.T) / 2
        diffs.append(np.linalg.norm((ka - kb) @ psi) / np.linalg.norm(psi))
    assert 3.4 <= diffs[0] / diffs[1] <= 4.6


def test_nonhermitian_equivalence_defect_converges():
    prof = cosine_bump(m0=1, lam=1)
    s = spec([(1, -1, 0, 0)])
    d1 = equivalence_defect(s, prof, Grid(-1.0, 1.0, 200), BUMP)
    d2 = equivalence_defect(s, prof, Grid(-1.0, 1.0, 400), BUMP)
    assert 3.4 <= d1 / d2 <= 4.6


def test_hbar_scaling_is_exact():
    g = Grid(-1.0, 1.0, 25)
    prof = lorentzian(m0=1, lam=1)
    a1 = assemble_terms(catalog("ZK"), prof, g, hbar=1.0).matrix
    a2 = assemble_terms(catalog("ZK"), prof, g, hbar=2.0).matrix
    assert np.array_equal(a2, 4.0 * a1)
    b1 = assemble_linear(linear_params(catalog("YY")), prof, g, hbar=1.0).matrix
    b2 = assemble_linear(linear_params(catalog("YY")), prof, g, hbar=2.0).matrix
    assert np.array_equal(b2, 4.0 * b1)


def test_non_finite_hbar_is_refused():
    g = Grid(-1.0, 1.0, 10)
    prof = lorentzian(m0=1, lam=1)
    s = catalog("BDD")
    # 1e200 is finite, but the operators scale with hbar^2
    for hbar in (float("nan"), float("inf"), -float("inf"), 1e200):
        with pytest.raises(ValueError, match="hbar"):
            assemble_terms(s, prof, g, hbar=hbar)
        with pytest.raises(ValueError, match="hbar"):
            assemble_linear(linear_params(s), prof, g, hbar=hbar)
        # refused like the assemblers, not NaN, -inf or an OverflowError
        with pytest.raises(ValueError, match="hbar"):
            effective_potential(linear_params(catalog("YY")), prof, [0.0, 0.5], hbar=hbar)
    # hbar = 0 is a valid (classical) limit
    assert not np.any(assemble_terms(s, prof, g, hbar=0.0).bands)


def test_exports_round_trip_and_shape():
    g = Grid(0.0, 1.0, 4)
    op = assemble_terms(catalog("BDD"), constant(1), g)
    csv_text = to_csv(op)
    rows = [line.split(",") for line in csv_text.strip().split("\n")]
    parsed = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(parsed, op.matrix)
    # byte for byte, with the signed zeros off the band
    assert csv_text == (
        "24.999999999999996,-12.499999999999998,-0.0,-0.0\n"
        "-12.499999999999998,24.999999999999996,-12.499999999999998,-0.0\n"
        "-0.0,-12.499999999999998,24.999999999999996,-12.499999999999998\n"
        "-0.0,-0.0,-12.499999999999998,24.999999999999996\n"
    )
    params = linear_params(spec([(1, -1, 0, 0)]))  # 1/2 * m^(-1) p p
    first_order_op = assemble_linear(params, lorentzian(), Grid(0.0, 1.0, 3))
    assert to_csv(first_order_op) == (
        "17.25,-8.625,0.0\n"
        "-10.125,20.25,-10.125\n"
        "0.0,-12.625,25.25\n"
    )
    doc = to_json_dict(op)
    assert doc["grid"]["n"] == 4
    assert doc["provenance"]["pathway"] == "terms"
    assert np.array_equal(np.array(doc["matrix"]), op.matrix)
    # a plain list of rows of floats for eta != 0 too
    matrix = to_json_dict(first_order_op)["matrix"]
    assert matrix == [[17.25, -8.625, 0.0], [-10.125, 20.25, -10.125], [0.0, -12.625, 25.25]]
    assert all(type(v) is float for row in matrix for v in row)


@pytest.mark.parametrize("n", [3, 4, 17])
def test_every_export_layout_writes_the_dense_matrix(n):
    # both strides, the fills that each leaves off the band (-0.0 from the
    # assemblers, +0.0 from hamiltonian) and eta != 0's unequal off-diagonals
    from pdmkeo.spectra import hamiltonian, make_potential

    g = Grid(-1.0, 1.0, n)
    prof = lorentzian()
    first_order = spec([(1, -1, 0, 0)])
    ops = [assemble_terms(s, prof, g, scheme=scheme)
           for s in (catalog("W"), first_order) for scheme in ("staggered", "central")]
    ops += [assemble_linear(linear_params(s), prof, g) for s in (catalog("W"), first_order)]
    ops += [hamiltonian(op, make_potential("harmonic:k=1")) for op in ops]
    assert {op.bandwidth for op in ops} == {1, 2}
    for op in ops:
        dense = op.matrix
        assert to_csv(op) == "".join(",".join(map(repr, row)) + "\n" for row in dense.tolist())
        assert np.asarray(to_json_dict(op)["matrix"]).tobytes() == dense.tobytes()
