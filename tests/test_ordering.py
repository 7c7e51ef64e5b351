import random
from fractions import Fraction as F

import pytest

from pdmkeo.errors import (
    ConstraintViolation,
    ParameterDomainError,
    UnknownOrdering,
    WeightSumViolation,
)
from pdmkeo.ordering import (
    BuildingBlock,
    OrderingSpec,
    canonicalize,
    catalog,
    is_hermitian,
    linear_params,
    spec,
    validate,
    weighted_mean,
)

# frozen (xi, zeta) targets for the fixed catalog entries
TABLE_VALUES = {
    "BDD": (F(0), F(0)),
    "GW": (F(-1, 2), F(0)),
    "ZK": (F(-1, 2), F(1, 4)),
    "MM": (F(-1, 4), F(1, 16)),
    "W": (F(-1, 4), F(0)),
    "LK": (F(-1, 4), F(0)),
    "Lal": (F(-1, 3), F(0)),
    "YY": (F(-1, 3), F(1, 6)),
}


def test_validate_accepts_bdd():
    assert validate(catalog("BDD")) == []


def test_validate_rejects_bad_exponent_sum():
    with pytest.raises(ConstraintViolation):
        spec([(1, 0, 0, 0)])
    with pytest.raises(ConstraintViolation):
        OrderingSpec((BuildingBlock(1, 0, 0, 0),))


def test_validate_rejects_bad_weight_sum():
    with pytest.raises(WeightSumViolation):
        spec([(F(1, 2), 0, -1, 0)])
    with pytest.raises(WeightSumViolation):
        OrderingSpec((BuildingBlock(F(1, 2), 0, -1, 0),))


def test_validate_warns_on_out_of_bounds_exponents():
    s = spec([(1, 1, -3, 1)])
    warnings = validate(s)
    assert len(warnings) == 1
    assert "outside [-1, 0]" in warnings[0]


def test_weighted_mean_weyl_gamma():
    assert weighted_mean(catalog("W"), "gamma") == F(-1, 4)


def test_weighted_mean_zero_gammas():
    s = spec([(F(1, 2), -1, 0, 0), (F(1, 2), F(-1, 2), F(-1, 2), 0)])
    assert weighted_mean(s, "gamma") == 0


def test_weighted_mean_da_alpha_gamma_products_vanish():
    assert weighted_mean(catalog("DA", 1), "alpha_gamma") == 0


def test_weighted_mean_selector_checked():
    with pytest.raises(ValueError):
        weighted_mean(catalog("BDD"), "beta")


@pytest.mark.parametrize(
    "name, expected",
    [(name, values) for name, values in TABLE_VALUES.items()],
)
def test_catalog_linear_params(name, expected):
    lp = linear_params(catalog(name))
    assert (lp.xi, lp.zeta) == expected
    assert lp.eta == 0


def test_linear_params_zk_example():
    lp = linear_params(spec([(1, F(-1, 2), 0, F(-1, 2))]))
    assert lp.as_tuple() == (F(-1, 2), F(1, 4), F(0))


def test_linear_params_nonhermitian_term():
    lp = linear_params(spec([(1, -1, 0, 0)]))
    assert lp.as_tuple() == (F(0), F(0), F(1))


def test_is_hermitian_mirrored_and_not():
    assert is_hermitian(catalog("vR", F(-1, 3), F(-1, 5)))
    assert not is_hermitian(spec([(1, -1, 0, 0)]))


def test_is_hermitian_without_mirrored_terms():
    # mean alpha = mean gamma even though no term is individually mirrored
    s = spec([(F(1, 2), -1, F(1, 2), F(-1, 2)), (F(1, 2), 0, F(-1, 2), F(-1, 2))])
    assert is_hermitian(s)
    assert linear_params(s).eta == 0


def test_hermitian_iff_eta_zero():
    rng = random.Random(11)
    for _ in range(200):
        terms = []
        n = rng.randint(1, 4)
        ws = [F(rng.randint(-2, 4), rng.randint(1, 4)) for _ in range(n)]
        total = sum(ws)
        if total == 0:
            continue
        ws = [w / total for w in ws]
        for w in ws:
            a = F(rng.randint(-4, 2), rng.randint(1, 4))
            g = F(rng.randint(-4, 2), rng.randint(1, 4))
            terms.append((w, a, -1 - a - g, g))
        s = spec(terms)
        assert is_hermitian(s) == (linear_params(s).eta == 0)


def test_linear_params_term_order_invariance():
    w = catalog("W")
    reversed_spec = OrderingSpec(tuple(reversed(w.terms)))
    assert linear_params(w) == linear_params(reversed_spec)


def test_linear_params_split_term_invariance():
    zk = catalog("ZK")
    t = zk.terms[0]
    half = BuildingBlock(t.w / 2, t.alpha, t.beta, t.gamma)
    split = OrderingSpec((half, half))
    assert linear_params(zk) == linear_params(split)


def test_vr_closed_form():
    rng = random.Random(3)
    for _ in range(50):
        a = F(rng.randint(-8, 8), rng.randint(1, 9))
        g = F(rng.randint(-8, 8), rng.randint(1, 9))
        lp = linear_params(catalog("vR", a, g))
        assert lp.xi == (a + g) / 2
        assert lp.zeta == a * g
        assert lp.eta == 0


def test_da_is_parameter_independent():
    for a in (F(1), F(-1, 2), F(3, 7), F(-9, 5), F(2)):
        lp = linear_params(catalog("DA", a))
        assert lp.as_tuple() == (0, 0, 0)


def test_da_rejects_minus_one():
    with pytest.raises(ParameterDomainError):
        catalog("DA", -1)


def test_catalog_unknown_name_and_arity():
    with pytest.raises(UnknownOrdering):
        catalog("XYZ")
    with pytest.raises(UnknownOrdering):
        catalog("MB")
    with pytest.raises(UnknownOrdering):
        catalog("BDD", 1)


def test_catalog_inline_parameters():
    assert catalog("MB(-1/2)").terms == catalog("MB", F(-1, 2)).terms
    assert catalog("vR(-1/4,-1/2)").terms == catalog("vR", F(-1, 4), F(-1, 2)).terms
    for malformed in ("MB(1/0)", "MB(x)", "vR(-1/4,)"):
        with pytest.raises(UnknownOrdering):
            catalog(malformed)


def test_catalog_weyl_weights():
    w = catalog("W")
    assert [t.w for t in w.terms] == [F(1, 4), F(1, 2), F(1, 4)]


def test_catalog_da_zero_degenerates_to_lkda_zero():
    raw = catalog("DA", 0)
    assert [t.w for t in raw.terms] == [0, 0, F(1, 2), F(1, 2)]
    da0 = canonicalize(raw)
    # zero-weight terms drop; the remainder is the two-term BDD-equivalent form
    assert canonicalize(catalog("LKDA", 0)).terms == da0.terms
    assert linear_params(da0).as_tuple() == (0, 0, 0)


def test_catalog_yy_matches_resolution_form():
    yy = catalog("YY")
    assert [(t.w, t.alpha, t.beta, t.gamma) for t in yy.terms] == [
        (F(1, 3), 0, -1, 0),
        (F(2, 3), F(-1, 2), 0, F(-1, 2)),
    ]
    assert linear_params(yy).as_tuple() == (F(-1, 3), F(1, 6), F(0))


def test_canonicalize_sorts_merges_and_drops():
    s = spec(
        [
            (F(1, 2), 0, -1, 0),
            (F(1, 4), -1, 0, 0),
            (F(1, 2), 0, -1, 0),
            (F(-1, 4), -1, 0, 0),
        ]
    )
    canon = canonicalize(s)
    assert [(t.w, t.alpha) for t in canon.terms] == [(F(1), F(0))]


def test_each_entry_point_validates_once(monkeypatch):
    from pdmkeo import ordering
    from pdmkeo.discretize import Grid, assemble_terms
    from pdmkeo.profiles import constant

    checks, passes = [], []
    real_check = ordering.check
    means = vars(OrderingSpec)["_means"]
    real_means = means.func

    def counting_check(s):
        checks.append(s)
        real_check(s)

    def counting_means(s):
        passes.append(s)
        return real_means(s)

    monkeypatch.setattr(ordering, "check", counting_check)
    monkeypatch.setattr(means, "func", counting_means)
    s = catalog("DA(-1/2)")
    # construction checks once; the means wait for their first use
    assert len(checks) == 1 and checks[0] is s
    assert passes == []
    entry_points = (
        linear_params,
        is_hermitian,
        lambda s: assemble_terms(s, constant(1), Grid(-1.0, 1.0, 10)),
        lambda s: weighted_mean(s, "alpha_gamma"),
    )
    for entry in entry_points:
        entry(s)
    assert len(checks) == 1
    assert len(passes) == 1 and passes[0] is s
