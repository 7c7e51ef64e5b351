import numpy as np
import pytest
import scipy.linalg
from fractions import Fraction as F

from pdmkeo.discretize import (
    AssembledOperator,
    Grid,
    assemble_linear,
    assemble_terms,
    derivative_matrix,
    effective_potential,
    equivalence_defect,
)
from pdmkeo.errors import DualOutsideAllowedRegion, KeoError, NotSymmetric
from pdmkeo.ordering import catalog, linear_params, spec
from pdmkeo.profiles import constant, gaussian_bump, lorentzian, make_profile
from pdmkeo.spectra import (
    dual_pair_report,
    hamiltonian,
    harmonic,
    make_potential,
    richardson,
    solve,
    spectrum_of_spec,
    zero_potential,
)

WELL_LEVELS = (0.5, 2.0, 4.5, 8.0, 12.5)

# Hermitian (eta = 0) but not built from mirrored pairs
UNMIRRORED = spec([(F(1, 2), F(-3, 4), F(-1, 4), 0), (F(1, 4), 0, F(-1, 2), F(-1, 2)),
                   (F(1, 4), 0, 0, -1)])


def test_hamiltonian_zero_potential_is_identity_on_keo():
    g = Grid(-1.0, 1.0, 20)
    keo = assemble_terms(catalog("BDD"), constant(1), g)
    h = hamiltonian(keo, zero_potential())
    assert np.array_equal(h.matrix, keo.matrix)


def test_hamiltonian_adds_diagonal():
    g = Grid(-1.0, 1.0, 20)
    keo = assemble_terms(catalog("BDD"), lorentzian(m0=1, lam=1), g)
    h = hamiltonian(keo, harmonic(k=2))
    assert np.allclose(h.matrix - keo.matrix, np.diag(g.points**2), atol=1e-15)
    assert np.max(np.abs(h.matrix - h.matrix.T)) <= 1e-13 * np.max(np.abs(h.matrix))


def test_infinite_well_spectrum():
    g = Grid(0.0, float(np.pi), 800)
    res = spectrum_of_spec(catalog("BDD"), constant(1), zero_potential(), g, 5)
    for computed, exact in zip(res.eigenvalues, WELL_LEVELS):
        assert abs(computed - exact) / exact < 0.01
    assert list(res.eigenvalues) == sorted(res.eigenvalues)
    assert all(r <= 1e-9 for r in res.residuals)


def test_constant_mass_hamiltonians_match_bdd():
    g = Grid(0.0, 2.0, 60)
    ref = hamiltonian(
        assemble_terms(catalog("BDD"), constant(1), g, scheme="staggered"), harmonic()
    )
    scale = np.max(np.abs(ref.matrix))
    for name in ("GW", "ZK", "MM", "W", "LK", "YY", "Lal", "vR(-1/4,-1/2)"):
        h = hamiltonian(
            assemble_terms(catalog(name), constant(1), g, scheme="staggered"), harmonic()
        )
        assert np.max(np.abs(h.matrix - ref.matrix)) <= 1e-14 * scale, name
        res = solve(h, 4)
        assert res.eigenvalues == pytest.approx(solve(ref, 4).eigenvalues, rel=1e-13)


def test_solve_rejects_asymmetric():
    g = Grid(-1.0, 1.0, 30)
    prof = lorentzian(m0=1, lam=1)
    op = assemble_terms(spec([(1, -1, 0, 0)]), prof, g)
    with pytest.raises(NotSymmetric):
        solve(hamiltonian(op, zero_potential()), 2)


@pytest.mark.parametrize("scheme", ["central", "staggered"])
@pytest.mark.parametrize("n", [100, 400])
def test_unmirrored_hermitian_ordering_solves(n, scheme):
    # its terms' A[i, j] and A[j, i] differ by O(h^3) before the symmetrization;
    # the mirror-averaged ordering sum w/2 (m^a p m^b p m^g + m^g p m^b p m^a)
    # is the same operator in the continuum and symmetric term by term
    prof, g = lorentzian(m0=1, lam=1), Grid(-1.0, 1.0, n)
    h = hamiltonian(assemble_terms(UNMIRRORED, prof, g, scheme=scheme), harmonic())
    assert np.array_equal(h.matrix, h.matrix.T)
    res = solve(h, 5)
    scale = np.max(np.abs(h.bands))
    assert max(res.residuals) <= 1e-14 * scale
    mirrored = spec([term for t in UNMIRRORED.terms for term in (
        (t.w / 2, t.alpha, t.beta, t.gamma), (t.w / 2, t.gamma, t.beta, t.alpha))])
    ref = solve(hamiltonian(assemble_terms(mirrored, prof, g, scheme=scheme), harmonic()), 5)
    assert np.max(np.abs(np.array(res.eigenvalues) - ref.eigenvalues)) <= 1e-12 * scale


def box_eigenvalues(grid, scheme, m0, k):
    """Exact lowest eigenvalues of the constant-mass, zero-potential
    operator: the three-point Laplacian (staggered) or the square of the
    central difference (central), with Dirichlet ends."""
    j = np.arange(1, grid.n + 1)
    theta = j * np.pi / (grid.n + 1)
    if scheme == "staggered":
        values = 2.0 * np.sin(theta / 2) ** 2 / (m0 * grid.h**2)
    else:
        values = np.cos(theta) ** 2 / (2.0 * m0 * grid.h**2)
    return np.sort(values)[:k]


def test_solve_refuses_a_k_that_is_not_an_integer():
    g = Grid(-1.0, 1.0, 10)
    h = hamiltonian(assemble_terms(catalog("BDD"), constant(1), g), zero_potential())
    for k in (2.5, 2.0, "2"):
        with pytest.raises(KeoError, match="need an integer k"):
            solve(h, k)
    assert len(solve(h, np.int64(2)).eigenvalues) == 2


def test_solve_rejects_bad_k_and_solves_large_n():
    g = Grid(-1.0, 1.0, 10)
    h = hamiltonian(assemble_terms(catalog("BDD"), constant(1), g), zero_potential())
    with pytest.raises(KeoError):
        solve(h, 0)
    with pytest.raises(KeoError):
        solve(h, 11)
    # no size cap: n = 4001 solves in banded form for both schemes
    big = Grid(-1.0, 1.0, 4001)
    for scheme in ("staggered", "central"):
        h = hamiltonian(assemble_terms(catalog("BDD"), constant(2), big, scheme=scheme),
                        zero_potential())
        res = solve(h, 5)
        scale = np.max(np.abs(h.bands))
        exact = box_eigenvalues(big, scheme, 2.0, 5)
        assert np.max(np.abs(np.array(res.eigenvalues) - exact)) <= 1e-11 * scale, scheme
        assert max(res.residuals) <= 1e-9 * scale, scheme


CONTINUUM_LEVELS = [
    (zero_potential(), 0.0, np.pi, lambda j: (j + 1) ** 2 / 2.0),  # box: j^2 pi^2 / (2 L^2)
    (harmonic(k=4), -6.0, 6.0, lambda j: 2.0 * (j + 0.5)),  # (j + 1/2) omega, omega = 2
]


@pytest.mark.parametrize("potential, x_min, x_max, levels", CONTINUUM_LEVELS)
def test_staggered_levels_approach_the_continuum_at_second_order(potential, x_min, x_max, levels):
    """Constant-mass levels against the continuum, not against the discrete
    operator's own eigenvalues: the observed order in h is 2."""
    exact = levels(np.arange(3))
    errors, spacings = [], []
    for n in (100, 200, 400):
        g = Grid(x_min, x_max, n)
        values = spectrum_of_spec(catalog("BDD"), constant(1), potential, g, 3).eigenvalues
        errors.append(np.abs(np.array(values) - exact))
        spacings.append(g.h)
    for i in range(2):
        order = np.log(errors[i] / errors[i + 1]) / np.log(spacings[i] / spacings[i + 1])
        assert np.all(np.abs(order - 2) <= 0.02), order


@pytest.mark.parametrize("potential, x_min, x_max, levels", CONTINUUM_LEVELS)
def test_richardson_on_the_refined_grid_beats_the_fine_value(potential, x_min, x_max, levels):
    """`richardson` cancels the h^2 error only when the fine spacing is
    exactly h/2, which `Grid.refined()` gives with 2n + 1 points. With 2n
    points the extrapolated box levels come out only about 75 times closer
    than the fine ones, against 3000 and more."""
    exact = levels(np.arange(3))
    g = Grid(x_min, x_max, 100)
    coarse, fine = (
        np.array(spectrum_of_spec(catalog("BDD"), constant(1), potential, grid, 3).eigenvalues)
        for grid in (g, g.refined())
    )
    extrapolated, _ = richardson(coarse, fine)
    assert np.all(100 * np.abs(extrapolated - exact) <= np.abs(fine - exact))


def test_grid_refinement_ratio_for_eigenvalues():
    prof = lorentzian(m0=1, lam=1)
    coarse = Grid(-1.0, 1.0, 100)
    grids = [coarse, coarse.refined(), coarse.refined().refined()]  # h, h/2, h/4
    values = [spectrum_of_spec(catalog("ZK"), prof, zero_potential(), g, 1).eigenvalues[0]
              for g in grids]
    extrap, _ = richardson(values[1], values[2])
    e1 = values[0] - extrap
    e2 = values[1] - extrap
    assert 3.5 <= e1 / e2 <= 4.5


def test_same_point_pairs_agree_after_extrapolation():
    prof = lorentzian(m0=1, lam=1)
    v = zero_potential()

    def extrapolate(name, n):
        g = Grid(-1, 1, n)
        e1 = spectrum_of_spec(catalog(name), prof, v, g, 1).eigenvalues[0]
        e2 = spectrum_of_spec(catalog(name), prof, v, g.refined(), 1).eigenvalues[0]
        return richardson(e1, e2)

    for a, b in (("LK", "W"), ("DA(1)", "BDD")):
        (ea, da), (eb, db) = extrapolate(a, 200), extrapolate(b, 200)
        assert abs(ea - eb) <= da + db


def test_bdd_vs_zk_differ_beyond_discretization_error():
    prof = lorentzian(m0=1, lam=1)
    v = zero_potential()
    e_bdd = [
        spectrum_of_spec(catalog("BDD"), prof, v, Grid(-1, 1, n), 1).eigenvalues[0]
        for n in (200, 400)
    ]
    e_zk = [
        spectrum_of_spec(catalog("ZK"), prof, v, Grid(-1, 1, n), 1).eigenvalues[0]
        for n in (200, 400)
    ]
    discretization = abs(e_bdd[1] - e_bdd[0]) + abs(e_zk[1] - e_zk[0])
    assert abs(e_bdd[1] - e_zk[1]) > 10 * discretization


def test_spectrum_and_dual_pair_check_k_before_assembling(monkeypatch):
    import pdmkeo.spectra

    def assemble(*args, **kwargs):
        raise AssertionError("assembled before k was checked")

    monkeypatch.setattr(pdmkeo.spectra, "assemble_terms", assemble)
    prof, g = lorentzian(m0=1, lam=1), Grid(-1, 1, 10)
    for k, message in ((0, "need 1 <= k <= n = 10, got k = 0"),
                       (11, "need 1 <= k <= n = 10, got k = 11"),
                       (2.5, "need an integer k, got k = 2.5")):
        for run in (lambda: spectrum_of_spec(catalog("YY"), prof, harmonic(), g, k),
                    lambda: dual_pair_report(F(-1, 4), F(1, 16), prof, harmonic(), g, k)):
            with pytest.raises(KeoError) as exc:
                run()
            assert str(exc.value) == message


def test_spectrum_refuses_an_eta_ordering_before_assembling(monkeypatch):
    import pdmkeo.spectra
    from pdmkeo.classify import invert
    from pdmkeo.parser import parse

    def assemble(*args, **kwargs):
        raise AssertionError("assembled an eta != 0 ordering")

    monkeypatch.setattr(pdmkeo.spectra, "assemble_terms", assemble)
    prof, g = lorentzian(m0=1, lam=1), Grid(-1, 1, 10)
    # the refusal names the similar Hermitian (xi - eta/2, zeta + eta^2/4)
    alpha, beta, gamma = (getattr(invert(F(-1, 4), F(1, 32), "vR").terms[0], key)
                          for key in ("alpha", "beta", "gamma"))
    for s, eta, point in (
        (parse("1/2 * m^(-1) p p"), "1", "(-1/2, 1/4)"),
        (spec([(F(1, 2), F(-1, 4), F(-1, 2), F(-1, 4)), (F(1, 2), 0, 0, -1)]), "-1/2", "(-3/8, 3/32)"),
        # surd exponents: one unmirrored term lands on the self-dual line
        (spec([(1, alpha, beta, gamma)]), "-1/4*sqrt(2)", "(-1/4, 1/16)"),
    ):
        with pytest.raises(KeoError) as exc:
            spectrum_of_spec(s, prof, harmonic(), g, 2)
        assert str(exc.value) == (
            f"eta = {eta} != 0: the ordering is not Hermitian; psi = m^(-eta/2) phi "
            f"makes it the Hermitian (xi, zeta) = {point}")


def test_dual_pair_theta_zero_is_self_dual():
    prof = lorentzian(m0=1, lam=1)
    rep = dual_pair_report(F(-1, 4), 0, prof, zero_potential(), Grid(-1, 1, 80), 3)
    assert rep.vr_point == rep.class_i_point
    assert rep.vr_spectrum.eigenvalues == rep.class_i_spectrum.eigenvalues
    assert rep.parameter_identity


def test_dual_pair_parameter_identity():
    prof = lorentzian(m0=1, lam=1)
    rep = dual_pair_report(F(-1, 4), F(1, 16), prof, zero_potential(), Grid(-1, 1, 80), 3)
    assert rep.vr_alpha_gamma == (F(-1, 2), F(0))
    assert rep.class_i_alpha_gamma == (F(-1, 2), F(0))
    assert rep.parameter_identity
    assert rep.vr_point == (F(-1, 4), F(0))
    assert rep.class_i_point == (F(-1, 4), F(1, 8))
    for res in (rep.vr_spectrum, rep.class_i_spectrum):
        assert len(res.eigenvalues) == 3
        assert list(res.eigenvalues) == sorted(res.eigenvalues)


def test_dual_pair_outside_region_propagates():
    prof = lorentzian(m0=1, lam=1)
    with pytest.raises(DualOutsideAllowedRegion):
        dual_pair_report(F(-1, 2), F(1, 4), prof, zero_potential(), Grid(-1, 1, 50), 2)


def test_make_potential():
    assert make_potential("zero").name == "zero"
    p = make_potential("harmonic:k=4,x0=1/2")
    assert p.v(0.5) == 0
    assert p.v(1.5) == pytest.approx(2.0)
    for bad in ("coulomb", "harmonic:q=1", "harmonic:k=1/0", "harmonic:k=1e400", "zero:k=1"):
        with pytest.raises(ValueError):
            make_potential(bad)


@pytest.mark.parametrize("make, text, key", [
    (make_profile, "lorentzian:lam=1/3,lam=3", "lam"),
    (make_profile, "gaussian_bump:sigma=1/2,m0=2,sigma=1/2", "sigma"),
    (make_potential, "harmonic:k=1,k=100", "k"),
])
def test_a_parameter_given_twice_is_refused(make, text, key):
    with pytest.raises(ValueError, match=f"parameter '{key}' is given twice") as err:
        make(text)
    assert "\n" not in str(err.value)


# ---------------------------------------------------------------- dense oracle
#
# The dense n x n construction the banded operators replaced, kept as the
# reference: banded assembly must reproduce it bit for bit, and the banded
# eigensolver must agree with a dense one on it.

ORACLE_SPECS = [catalog(name) for name in (
    "BDD", "GW", "ZK", "MM", "W", "LK", "Lal", "YY",
    "vR(-1/4,-1/2)", "MB(-1/3)", "LKDA(-1/3)", "DA(-1/2)", "DA(1)",
)] + [
    spec([(1, -1, 0, 0)]),  # eta = 1: asymmetric, refused by solve
    UNMIRRORED,  # eta = 0: averaged with its transpose, so it solves
]


def _dense_mass_power(u, s):
    return np.ones_like(u) if float(s) == 0.0 else u ** (-float(s))


def _dense_central_core(b, h):
    n = b.size
    x = np.zeros((n, n))
    w = 1.0 / (4 * h * h)
    i = np.arange(n)
    diag = np.zeros(n)
    diag[1:] += w * b[:-1]
    diag[:-1] += w * b[1:]
    x[i, i] = -diag
    j = np.arange(n - 2)
    x[j, j + 2] = w * b[j + 1]
    x[j + 2, j] = w * b[j + 1]
    return x


def _dense_staggered_core(b_mid, h):
    n = b_mid.size - 1
    x = np.zeros((n, n))
    w = 1.0 / (h * h)
    i = np.arange(n)
    x[i, i] = -(w * b_mid[:-1] + w * b_mid[1:])
    j = np.arange(n - 1)
    x[j, j + 1] = w * b_mid[1:-1]
    x[j + 1, j] = w * b_mid[1:-1]
    return x


def _dense_core(b_at, grid, scheme):
    if scheme == "central":
        return _dense_central_core(b_at(grid.points), grid.h)
    return _dense_staggered_core(b_at(grid.midpoints), grid.h)


def dense_terms(s, profile, grid, scheme, hbar=1.0):
    total = np.zeros((grid.n, grid.n))
    u = profile.jet(grid.points)[0]
    for t in s.terms:
        a = _dense_mass_power(u, t.alpha)
        c = _dense_mass_power(u, t.gamma)
        core = _dense_core(lambda x: _dense_mass_power(profile.jet(x)[0], t.beta), grid, scheme)
        total += float(t.w) * (a[:, None] * core * c[None, :])
    matrix = -(hbar**2 / 2.0) * total
    if linear_params(s).eta == 0:
        matrix = (matrix + matrix.T) / 2
    return matrix


def dense_linear(params, profile, grid, hbar=1.0):
    x = grid.points
    matrix = -(hbar**2 / 2.0) * _dense_staggered_core(profile.jet(grid.midpoints)[0], grid.h)
    matrix = matrix + np.diag(effective_potential(params, profile, x, hbar))
    if params.eta != 0:
        du = profile.jet(x)[1]
        matrix = matrix + float(params.eta) * (hbar**2 / 2.0) * (
            du[:, None] * derivative_matrix(grid)
        )
    return matrix


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme", ["central", "staggered"])
@pytest.mark.parametrize("profile", [
    lorentzian(m0=1, lam=1), gaussian_bump(m0=1, lam=1, sigma=F(1, 4)),
], ids=["lorentzian", "gaussian_bump"])
def test_banded_operators_match_dense_oracle(scheme, profile):
    g = Grid(-1.0, 1.0, 300)
    psi = np.random.default_rng(1).standard_normal(g.n)
    v = harmonic(k=2)
    for s in ORACLE_SPECS:
        keo = assemble_terms(s, profile, g, scheme=scheme)
        lin = assemble_linear(linear_params(s), profile, g)
        assert _same_bits(keo.matrix, dense_terms(s, profile, g, scheme)), s
        assert _same_bits(lin.matrix, dense_linear(linear_params(s), profile, g)), s
        for op in (keo, lin):
            dense = op.matrix
            atol = 1e-13 * np.max(np.abs(dense))
            assert np.allclose(op.applied_to(psi), dense @ psi, rtol=0, atol=atol), s

        h = hamiltonian(keo, v)
        dense = h.matrix
        assert _same_bits(dense, keo.matrix + np.diag(v.v(g.points))), s
        scale = np.max(np.abs(dense))
        if np.max(np.abs(dense - dense.T)) > 1e-10 * scale:
            with pytest.raises(NotSymmetric):
                solve(h, 5)
            continue
        expected = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=(0, 4))
        got = np.array(solve(h, 5).eigenvalues)
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale, s


def test_residuals_at_exact_and_degenerate_eigenvalues():
    # central odd-even decoupling gives degenerate pairs: a symmetric mass
    # on even n makes the even and odd blocks mirror images, whose
    # bisections agree to rounding
    g = Grid(-1.0, 1.0, 500)
    h = hamiltonian(assemble_terms(catalog("YY"), lorentzian(m0=1, lam=1), g, scheme="central"),
                    zero_potential())
    res = solve(h, 6)
    scale = np.max(np.abs(h.bands))
    assert abs(res.eigenvalues[0] - res.eigenvalues[1]) <= 4 * np.finfo(float).eps * scale
    assert max(res.residuals) <= 1e-9 * scale
    # with hbar = 0 every eigenvalue is a diagonal entry, so H - e is
    # exactly singular, on the whole H and on each block
    cases = [
        hamiltonian(assemble_terms(catalog("BDD"), constant(1), Grid(-1.0, 1.0, 51),
                                   hbar=0.0, scheme="central"), harmonic()),
        hamiltonian(assemble_terms(catalog("BDD"), constant(1), Grid(-1.0, 1.0, 50),
                                   hbar=0.0), harmonic()),
    ]
    for h in cases:
        res = solve(h, 4)
        assert max(res.residuals) <= 1e-9 * np.max(np.abs(h.bands))


def test_a_pair_closer_than_the_bracket_split_by_k():
    # two copies of one operator joined by a coupling of 1e-13 max|H|: every
    # level is a pair split by far less than the bisection bracket, and k = 5
    # takes one member of the third pair
    m = 40
    h = hamiltonian(assemble_terms(catalog("YY"), lorentzian(m0=1, lam=1), Grid(-1.0, 1.0, m)),
                    harmonic())
    scale = np.max(np.abs(h.bands))
    bands = np.concatenate((h.bands, h.bands), axis=1)
    bands[0, m] = bands[2, m - 1] = 1e-13 * scale
    joined = AssembledOperator(bands, Grid(-1.0, 1.0, 2 * m), 1.0)
    expected = scipy.linalg.eigh(joined.matrix, eigvals_only=True)
    assert expected[5] - expected[4] < 2.0**-39 * scale
    got = np.array(solve(joined, 5).eigenvalues)
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - expected[:5])) <= 2.0**-39 * scale


def test_without_kinetic_energy_the_levels_are_the_sorted_potential():
    # hbar = 0 leaves H = diag(V), and V on a symmetric grid repeats each
    # value: every level is a diagonal entry, ties included, to the bit
    h = hamiltonian(assemble_terms(catalog("BDD"), constant(1), Grid(-1.0, 1.0, 50), hbar=0.0),
                    harmonic())
    diagonal = np.sort(h.bands[1])
    assert np.unique(diagonal).size < diagonal.size
    assert solve(h, 50).eigenvalues == tuple(diagonal)


def test_a_small_block_split_off_solves_to_rounding():
    # H splits into blocks [1] and [[0, 1/16], [1/16, 0]]: from a shift that
    # is not accurate to rounding, inverse iteration on the second block
    # declares failure, so this H is bisected to rounding
    g = Grid(-1.0, 1.0, 3)
    h = AssembledOperator(np.array([[0.0, 0.0, 0.0625], [1.0, 0.0, 0.0], [0.0, 0.0625, 0.0]]),
                          g, 1.0)
    res = solve(h, 2)
    assert res.eigenvalues == (-0.0625, 0.0625)
    assert res.provenance["bracket"] == 0.0


def test_close_levels_of_one_block_are_bisected_to_rounding():
    # a tunnelling pair: the two lowest levels of this H are 2.8e-4 apart,
    # inside the 4.9e-4 bracket, and both lie in one LAPACK block. Bisected
    # to the bracket only, both shifts are 449.10162104, and the quotients
    # of the two vectors inverse iteration returns are each ~4e-5 off, with
    # residuals of 2.2e-13 max|H|
    h = hamiltonian(assemble_terms(catalog("BDD"), constant(1), Grid(-3e4, 3e4, 1000)),
                    harmonic(k=1))
    scale = np.max(np.abs(h.bands))
    expected = scipy.linalg.eigvalsh_tridiagonal(h.bands[1], h.bands[2, :-1],
                                                 lapack_driver="stebz")[:5]
    assert expected[1] - expected[0] < 2.0**-39 * scale
    res = solve(h, 5)
    assert res.provenance["bracket"] == 0.0
    assert np.max(np.abs(np.array(res.eigenvalues) - expected)) <= 2 * np.finfo(float).eps * scale
    assert res.provenance["max_residual"] <= 1e-15


def _failing(routine, tol=None):
    """A LAPACK routine that reports failure (info = 1), only when called
    with the bisection tolerance `tol` if one is given."""
    def call(*args):
        out = routine(*args)
        if tol is None or args[7] == tol:
            out = (*out[:-1], 1)
        return out
    return call


def test_a_lapack_failure_at_the_bracket_bisects_to_rounding(monkeypatch):
    from pdmkeo.spectra import _lapack

    # the solver reads both routines from the extension module it loaded
    lapack = _lapack()
    h = hamiltonian(assemble_terms(catalog("YY"), lorentzian(m0=1, lam=1), Grid(-1.0, 1.0, 200)),
                    harmonic())
    expected = solve(h, 5)
    # ?stebz reports failure at the scaled bracket; to rounding it succeeds
    monkeypatch.setattr(lapack, "dstebz", _failing(lapack.dstebz, tol=2.0**-40))
    res = solve(h, 5)
    assert res.provenance["bracket"] == 0.0
    atol = 1e-14 * np.max(np.abs(h.bands))
    assert np.allclose(res.eigenvalues, expected.eigenvalues, rtol=0, atol=atol)
    # ?stein failing on every call leaves nothing to fall back on
    monkeypatch.undo()
    monkeypatch.setattr(lapack, "dstein", _failing(lapack.dstein))
    with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
        solve(h, 5)
    # ?stebz failing at every bracket fails the last rung, and the error
    # names the routine
    monkeypatch.undo()
    monkeypatch.setattr(lapack, "dstebz", _failing(lapack.dstebz))
    with pytest.raises(np.linalg.LinAlgError, match=r"LAPACK \?stebz failed \(info = 1\)"):
        solve(h, 5)


def test_a_missing_lapack_extension_is_an_import_error(monkeypatch, tmp_path):
    import re
    import sys

    from pdmkeo.spectra import _lapack

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    _lapack.cache_clear()
    try:
        message = f"no scipy.linalg._flapack extension in {tmp_path / 'linalg'}"
        with pytest.raises(ImportError, match=re.escape(message)):
            _lapack()
    finally:
        _lapack.cache_clear()


def test_provenance_records_the_bracket_and_the_largest_residual():
    h = hamiltonian(assemble_terms(catalog("YY"), lorentzian(m0=1, lam=1), Grid(-1.0, 1.0, 400)),
                    harmonic())
    scale = np.max(np.abs(h.bands))
    prov = solve(h, 5).provenance
    assert prov["scheme"] == "staggered"
    assert 0 < prov["bracket"] <= 2.0**-39 * scale
    assert 0 <= prov["max_residual"] <= 1e-12


@pytest.mark.parametrize("scheme", ["central", "staggered"])
def test_operators_with_entries_near_the_float_limit_solve(scheme):
    # entries of ~1e203 (1/m = 1e200): bisection and the residual norm
    # both square them, so both work on H scaled by a power of two
    g = Grid(0.0, 0.34, 20)
    keo = assemble_terms(catalog("BDD"), constant(F(1, 10**200)), g, scheme=scheme)
    with np.errstate(all="raise"):
        res = solve(hamiltonian(keo, zero_potential()), 3)
    exact = solve(hamiltonian(assemble_terms(catalog("BDD"), constant(1), g, scheme=scheme),
                              zero_potential()), 3)
    # 1/m scales the operator, and so its eigenvalues, by 1e200
    assert np.allclose(res.eigenvalues, np.array(exact.eigenvalues) * 1e200, rtol=1e-12, atol=0)
    assert max(res.residuals) <= 1e-9 * np.max(np.abs(keo.bands))


def test_max_residual_reads_the_same_on_a_subnormal_operator():
    # every entry subnormal: the residuals are taken on H scaled by a power
    # of two, whose entries are normal, so max_residual is the one of the
    # same H scaled into the normal range, and the levels are its levels
    # scaled back
    a = 2.2250738585e-313
    bands = np.array([[0.0, 0.0, a], [0.0, 0.0, a], [0.0, a, 0.0]])
    res = solve(AssembledOperator(bands, Grid(-1.0, 1.0, 3), 1.0), 3)
    assert res.provenance["max_residual"] <= 1e-15
    normal = solve(AssembledOperator(np.ldexp(bands, 1040), Grid(-1.0, 1.0, 3), 1.0), 3)
    assert res.provenance["max_residual"] == normal.provenance["max_residual"]
    assert res.eigenvalues == tuple(np.ldexp(normal.eigenvalues, -1040))


@pytest.mark.parametrize("scheme", ["central", "staggered"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_small_grids_and_single_point_blocks(n, scheme):
    # at n = 3 the central odd block is a single grid point
    h = hamiltonian(assemble_terms(catalog("YY"), lorentzian(m0=1, lam=1), Grid(-1.0, 1.0, n),
                                   scheme=scheme), harmonic())
    scale = np.max(np.abs(h.matrix))
    res = solve(h, n)
    expected = scipy.linalg.eigh(h.matrix, eigvals_only=True)
    assert np.max(np.abs(np.array(res.eigenvalues) - expected)) <= 1e-12 * scale
    assert all(np.isfinite(r) and r <= 1e-9 * scale for r in res.residuals)


def test_no_dense_matrix_outside_the_export():
    import tracemalloc

    prof = lorentzian(m0=1, lam=1)
    solve(hamiltonian(assemble_terms(catalog("YY"), prof, Grid(-1.0, 1.0, 20)),
                      zero_potential()), 1)  # loads LAPACK outside the trace
    g = Grid(-1.0, 1.0, 3000)
    dense_bytes = g.n * g.n * 8
    tracemalloc.start()
    try:
        for scheme in ("central", "staggered"):
            keo = assemble_terms(catalog("YY"), prof, g, scheme=scheme)
            solve(hamiltonian(keo, harmonic()), 5)
        assemble_linear(linear_params(catalog("YY")), prof, g)
        equivalence_defect(catalog("DA(-1/2)"), prof, g, lambda x: (1 - x**2) ** 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 10
