"""Symbolic oracles: the paper's linear form and the profiles' closed-form
derivatives, checked by computer algebra instead of finite differences."""

import functools
from fractions import Fraction as F

import numpy as np
import pytest

# a sympy that is absent or fails to import skips the module
sp = pytest.importorskip("sympy", exc_type=ImportError)

from pdmkeo.discretize import Grid, assemble_linear, effective_potential, equivalence_defect
from pdmkeo.ordering import LinearParams, catalog, linear_params
from pdmkeo.parser import parse
from pdmkeo.profiles import PROFILES, lorentzian

x = sp.Symbol("x", real=True)
u = sp.Function("u")(x)  # generic inverse mass 1/m
f = sp.Function("f")(x)  # generic wave function

ORDERINGS = [catalog(name) for name in ("BDD", "ZK", "YY", "LK", "MB(-1/3)", "DA(-1/2)", "W")] + [
    parse(text) for text in (
        "1/2 * m^(-1) p p",
        "1/2 * p p m^(-1)",
        "1/4 * m^(-3/4) p m^(-1/4) p + 1/4 * p m^(-1) p",
    )
]


def _rational(q: F):
    return sp.Rational(q.numerator, q.denominator)


def _ordering_applied(s, g):
    """(1/2) sum w m^a p m^b p m^c g with hbar = 1, p = -i d/dx, m^s = u^-s."""
    total = 0
    for t in s.terms:
        a, b, c = (_rational(v) for v in (t.alpha, t.beta, t.gamma))
        total += _rational(t.w) * u**-a * sp.diff(u**-b * sp.diff(u**-c * g, x), x)
    return -total / 2


def _symbolic(lp):
    return tuple(_rational(v) for v in lp.as_tuple())


def _linear_form_coefficients(xi, zeta, eta, inv_m):
    """Zeroth- and first-order coefficients (xi u'' + zeta u'^2/u)/2 and
    (eta/2) u' of the linear form, for the inverse mass `inv_m`."""
    du = sp.diff(inv_m, x)
    return (xi * sp.diff(inv_m, x, 2) + zeta * du**2 / inv_m) / 2, eta * du / 2


def _linear_form(xi, zeta, eta, g):
    """-(u g')'/2 + V_eff(xi, zeta) g + (eta/2) u' g' with hbar = 1."""
    v_eff, first_order = _linear_form_coefficients(xi, zeta, eta, u)
    return -sp.diff(u * sp.diff(g, x), x) / 2 + v_eff * g + first_order * sp.diff(g, x)


@pytest.mark.parametrize("s", ORDERINGS, ids=lambda s: s.name or "parsed")
def test_ordering_equals_its_linear_form(s):
    linear_form = _linear_form(*_symbolic(linear_params(s)), f)
    assert sp.simplify(sp.expand(_ordering_applied(s, f) - linear_form)) == 0


def test_every_ordering_is_similar_to_a_hermitian_one():
    # u^(-eta/2) T(xi, zeta, eta) u^(eta/2) = T(xi - eta/2, zeta + eta^2/4, 0):
    # with psi = m^(-eta/2) phi, the first-order term goes, and the new point
    # has theta = zeta - xi^2 + eta xi, the covariance of alpha and gamma
    xi, zeta, eta = sp.symbols("xi zeta eta", real=True)
    similar = u ** (-eta / 2) * _linear_form(xi, zeta, eta, u ** (eta / 2) * f)
    hermitian = _linear_form(xi - eta / 2, zeta + eta**2 / 4, 0, f)
    assert sp.simplify(sp.expand(similar - hermitian)) == 0


@pytest.mark.parametrize("s", ORDERINGS, ids=lambda s: s.name or "parsed")
def test_linear_form_coefficients_match_the_assembly(s):
    prof = lorentzian(m0=F(3, 2), lam=F(1, 3))
    inv_m = (1 + _rational(prof.parameters["lam"]) * x**2) / _rational(prof.parameters["m0"])
    v_eff, first_order = _linear_form_coefficients(*_symbolic(linear_params(s)), inv_m)
    hbar = 1.5
    g = Grid(-2.0, 3.0, 40)
    points = g.points
    exact = lambda expr: np.array([float(expr.subs(x, p)) for p in points]) * hbar**2
    got_v = effective_potential(linear_params(s), prof, points, hbar)
    assert np.allclose(got_v, exact(v_eff), rtol=1e-13, atol=1e-13 * np.max(np.abs(got_v)))
    # the +1 diagonal holds the kinetic core and the first-order term,
    # c_i / (2h) on row i: the core is what the same form with eta = 0 holds
    lp = linear_params(s)
    bands = assemble_linear(lp, prof, g, hbar=hbar).bands
    bare = assemble_linear(LinearParams(lp.xi, lp.zeta, 0), prof, g, hbar=hbar).bands
    got_c = (bands[0, 1:] - bare[0, 1:]) * (2 * g.h)
    expected_c = exact(first_order)[:-1]
    atol = 1e-13 * max(1.0, np.max(np.abs(expected_c)))
    assert np.allclose(got_c, expected_c, rtol=1e-13, atol=atol)


h = sp.Symbol("h", positive=True)
# generic core coefficient b and core operand g of the staggered stencil
_b, _g = sp.Function("b"), sp.Function("g")


@functools.cache
def _core_coefficients():
    """The h^0, h^1 and h^2 coefficients of row i of the staggered core
    d/dx b d/dx applied to g, [b(x+h/2)(g(x+h) - g(x)) - b(x-h/2)(g(x) - g(x-h))]/h^2,
    expanded once for generic b and g."""
    row = (_b(x + h / 2) * (_g(x + h) - _g(x)) - _b(x - h / 2) * (_g(x) - _g(x - h))) / h**2
    series = sp.series(row, h, 0, 3).removeO().doit()
    return [sp.expand(series.coeff(h, k)) for k in range(3)]


def _substitute(expr, functions):
    """expr with each generic function replaced by an expression in x."""
    y = sp.Dummy("y")
    for func, value in functions.items():
        expr = expr.replace(func, sp.Lambda(y, value.subs(x, y)))
    return expr.doit()


def _defect_coefficients(s):
    """c_0, c_1, c_2: the h^k coefficients of row i of (A_terms - A_linear) f
    with hbar = 1, 1/m = u and m^s = u^-s. Row i of A_terms is
    -(1/2) sum w a(x) core(b, c f) with a, b, c = m^alpha, m^beta, m^gamma,
    b sampled at the midpoints x +- h/2; row i of A_linear is
    -(1/2) core(u, f) + V_eff(xi, zeta) f. The terms path's (A + A^T)/2 is
    left out, so s must be symmetric or mirrored term by term, and eta = 0."""
    terms = sorted((t.w, t.alpha, t.beta, t.gamma) for t in s.terms)
    assert terms == sorted((w, c, b, a) for w, a, b, c in terms), "not mirrored"
    xi, zeta, eta = _symbolic(linear_params(s))
    assert eta == 0
    v_eff, _ = _linear_form_coefficients(xi, zeta, eta, u)
    out = []
    for k, core in enumerate(_core_coefficients()):
        a_terms = sum(
            _rational(t.w) * u ** -_rational(t.alpha)
            * _substitute(core, {_b: u ** -_rational(t.beta), _g: u ** -_rational(t.gamma) * f})
            for t in s.terms
        )
        a_linear = _substitute(core, {_b: u, _g: f})
        out.append(-(a_terms - a_linear) / 2 - (v_eff * f if k == 0 else 0))
    return out


@pytest.mark.parametrize("name", ["YY", "DA(-1/2)", "W", "BDD"])
def test_equivalence_defect_is_its_predicted_h2_coefficient(name):
    # the defect-order tests see only the order; this one models both
    # pathways independently of `_core_diagonals` and `_sample`, which they share
    s = catalog(name)
    c0, c1, c2 = _defect_coefficients(s)
    assert sp.simplify(sp.expand(c0)) == 0
    assert sp.simplify(sp.expand(c1)) == 0
    # lorentzian() is 1/m = 1 + x^2
    psi = (1 - x**2) ** 4
    c2 = sp.simplify(sp.expand(_substitute(c2, {u.func: 1 + x**2, f.func: psi})))
    c2_at, psi_at = (sp.lambdify(x, e, "numpy") for e in (c2, psi))
    for n, tol in ((250, 5e-4), (1000, 5e-5)):
        g = Grid(-1.0, 1.0, n)
        defect = equivalence_defect(s, lorentzian(), g, psi_at)
        if name == "BDD":
            assert c2 == 0 and defect == 0.0
            continue
        predicted = g.h**2 * np.linalg.norm(c2_at(g.points)) / np.linalg.norm(psi_at(g.points))
        assert abs(defect / predicted - 1) <= tol, (n, defect, predicted)


def _closed_form(name, p):
    r = {key: _rational(value) for key, value in p.items()}
    if name == "constant":
        return 1 / r["m0"]
    if name == "lorentzian":
        return (1 + r["lam"] * x**2) / r["m0"]
    if name == "gaussian_bump":
        return 1 / (r["m0"] * (1 + r["lam"] * sp.exp(-x**2 / r["sigma"] ** 2)))
    if name == "smoothed_step":
        return 1 / (r["m0"] * (1 + r["lam"] * sp.tanh(x / r["sigma"])))
    if name == "cosine_bump":
        return (1 + r["lam"] * sp.cos(sp.pi * x / (2 * r["half_width"])) ** 2) / r["m0"]
    raise AssertionError(f"no closed form for profile {name!r}")


# non-default values, so a parameter read in the wrong place shows
PROFILE_PARAMETERS = {
    "constant": {"m0": F(3, 2)},
    "lorentzian": {"m0": F(3, 2), "lam": F(1, 3)},
    "gaussian_bump": {"m0": F(3, 2), "lam": F(1, 2), "sigma": F(5, 4)},
    "smoothed_step": {"m0": F(3, 2), "lam": F(-2, 5), "sigma": F(5, 4)},
    "cosine_bump": {"m0": F(3, 2), "lam": F(2, 3), "half_width": F(7, 5)},
}

# inside and outside [-1, 1]: a profile may meet a grid anywhere
SAMPLE_POINTS = (-3.0, -1.7, 0.4, 2.5)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_derivatives_match_symbolic_derivatives(name):
    prof = PROFILES[name](**PROFILE_PARAMETERS[name])
    inv_m = _closed_form(name, prof.parameters)
    for order in range(3):
        expr = sp.diff(inv_m, x, order)
        for p in SAMPLE_POINTS:
            exact = float(expr.subs(x, sp.Float(p, 30)).evalf(30))
            got = float(prof.jet(np.array([p]))[order][0])
            assert got == pytest.approx(exact, rel=1e-14, abs=0), (name, order, p)
