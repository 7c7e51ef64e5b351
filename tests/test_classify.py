import random
from fractions import Fraction as F

import numpy as np
import pytest
from classify_reference import reference_classify

from pdmkeo.classify import (
    classify,
    dual,
    from_duality,
    in_allowed_region,
    invert,
    region_samples,
    to_duality,
)
from pdmkeo.errors import (
    ConstraintUnsatisfied,
    DualOutsideAllowedRegion,
    OutsideAllowedRegion,
)
from pdmkeo.ordering import linear_params
from pdmkeo.surds import Surd


def regions_of(labels):
    return {lab.region for lab in labels}


def flags_of(labels, region):
    return next(lab.boundaries for lab in labels if lab.region == region)


def test_allowed_region_examples():
    assert in_allowed_region(F(-1, 2), F(1, 4))
    assert in_allowed_region(0, 0)
    assert not in_allowed_region(F(-1, 2), F(1, 2))
    assert not in_allowed_region(F(-3, 5), F(1, 10))
    assert not in_allowed_region(F(-1, 4), F(-1, 100))


def test_classify_outside_region_raises():
    with pytest.raises(OutsideAllowedRegion):
        classify(F(-1, 2), F(1, 2))


def test_classify_yy_point():
    labels = classify(F(-1, 3), F(1, 6))
    assert regions_of(labels) == {"III"}
    assert flags_of(labels, "III") == {"upper"}


def test_classify_corner_point():
    labels = classify(F(-1, 2), F(1, 4))
    assert regions_of(labels) == {"vR", "I", "III"}
    assert "MB" in flags_of(labels, "vR")
    assert "MB" in flags_of(labels, "I")
    assert "I/III" in flags_of(labels, "III")
    for region in ("vR", "I", "III"):
        assert "upper" in flags_of(labels, region)


def test_classify_interior_class_ii_point():
    labels = classify(F(-1, 8), F(3, 64))
    assert regions_of(labels) == {"II"}
    assert flags_of(labels, "II") == set()


def test_classify_origin():
    labels = classify(0, 0)
    assert regions_of(labels) == {"vR", "I", "II"}
    assert "lower" in flags_of(labels, "vR")
    assert "I/II" in flags_of(labels, "II")


def test_mb_line_points_belong_to_vr_and_i():
    for xi in (F(-1, 3), F(-1, 5), F(-2, 7)):
        labels = classify(xi, xi * xi)
        assert {"vR", "I"} <= regions_of(labels)
        assert "MB" in flags_of(labels, "vR")
        assert "MB" in flags_of(labels, "I")


def test_invert_vr_gw_point():
    s = invert(F(-1, 2), 0, "vR")
    values = {(t.alpha, t.gamma) for t in s.terms}
    assert values == {(F(0), F(-1)), (F(-1), F(0))}
    assert all(t.beta == 0 for t in s.terms)
    assert linear_params(s).as_tuple() == (F(-1, 2), F(0), F(0))


def test_invert_iii_yy_point():
    s = invert(F(-1, 3), F(1, 6), "III")
    assert [(t.w, t.alpha, t.beta, t.gamma) for t in s.terms] == [
        (F(1, 3), 0, -1, 0),
        (F(2, 3), F(-1, 2), 0, F(-1, 2)),
    ]


def test_invert_ii_point():
    s = invert(F(-1, 8), F(3, 64), "II")
    assert s.terms[0].w == F(1, 3)
    assert s.terms[0].alpha == F(-3, 8)
    assert linear_params(s).as_tuple() == (F(-1, 8), F(3, 64), F(0))


def test_invert_i_point():
    s = invert(F(-1, 4), F(1, 8), "I")
    assert {t.alpha for t in s.terms} == {F(0), F(-1, 2)}
    assert linear_params(s).as_tuple() == (F(-1, 4), F(1, 8), F(0))


def test_invert_vr_rejects_complex_roots():
    with pytest.raises(ConstraintUnsatisfied):
        invert(F(-1, 3), F(1, 6), "vR")


def test_invert_wrong_class_rejected():
    with pytest.raises(ConstraintUnsatisfied):
        invert(F(-1, 8), F(3, 64), "III")


def test_invert_surd_round_trip():
    s = invert(F(-1, 4), F(1, 32), "vR")
    assert any(isinstance(t.alpha, Surd) for t in s.terms)
    assert linear_params(s).as_tuple() == (F(-1, 4), F(1, 32), F(0))
    s = invert(F(-1, 4), F(3, 32), "I")
    assert linear_params(s).as_tuple() == (F(-1, 4), F(3, 32), F(0))


def test_invert_float_mode_close():
    s = invert(F(-1, 4), F(1, 32), "vR", float_mode=True)
    exact = invert(F(-1, 4), F(1, 32), "vR")
    for tf, te in zip(s.terms, exact.terms):
        assert float(tf.alpha) == pytest.approx(float(te.alpha), rel=1e-15)
        assert float(tf.gamma) == pytest.approx(float(te.gamma), rel=1e-15)
    lp = linear_params(s)
    assert float(lp.xi) == pytest.approx(-0.25, rel=1e-12)


def test_float_invert_beyond_the_factoring_cap_rounds_the_root():
    xi, zeta = F(-1, 1000000007), F(1, 10**20 + 39)
    s = invert(xi, zeta, "vR", float_mode=True)
    # the exponents are xi +- the float nearest sqrt(xi^2 - zeta)
    assert s.terms[0].alpha - xi == xi - s.terms[0].gamma == F(9.949874300713553e-10)
    assert [(t.alpha, t.gamma) for t in s.terms][::-1] == [(t.gamma, t.alpha) for t in s.terms]


def test_invert_class_ii_origin_returns_single_term():
    s = invert(0, 0, "II")
    assert [(t.w, t.alpha, t.beta, t.gamma) for t in s.terms] == [(1, 0, -1, 0)]


def test_invert_class_iii_corner_returns_single_term():
    s = invert(F(-1, 2), F(1, 4), "III")
    assert [(t.w, t.alpha, t.beta, t.gamma) for t in s.terms] == [
        (1, F(-1, 2), 0, F(-1, 2))
    ]


def test_duality_zk_is_fixed_point():
    d = to_duality(F(-1, 2), F(1, 4))
    assert d.theta == 0
    assert dual(d) == d


def test_duality_chain_example():
    d = to_duality(F(-1, 4), 0)
    assert d.theta == F(-1, 16)
    image = dual(d)
    xi, zeta = from_duality(image)
    assert (xi, zeta) == (F(-1, 4), F(1, 8))
    vr_side = invert(F(-1, 4), 0, "vR")
    i_side = invert(xi, zeta, "I")
    vr_values = {v for t in vr_side.terms for v in (t.alpha, t.gamma)}
    i_values = {v for t in i_side.terms for v in (t.alpha, t.gamma)}
    assert vr_values == i_values == {F(0), F(-1, 2)}


def test_duality_gw_outside():
    with pytest.raises(DualOutsideAllowedRegion):
        dual(to_duality(F(-1, 2), 0))


def test_dual_is_involution_on_samples():
    rng = random.Random(23)
    checked = 0
    while checked < 300:
        xi = -F(rng.randint(0, 24), 96)  # in [-1/4, 0]
        lo = max(F(0), 2 * xi * xi + xi / 2)
        hi = 2 * xi * xi
        if hi < lo:
            continue
        zeta = lo + (hi - lo) * F(rng.randint(0, 16), 16)
        d = to_duality(xi, zeta)
        dd = dual(dual(d))
        assert dd == d
        assert (dual(d) == d) == (d.theta == 0)
        checked += 1


def test_region_samples_resolution_3():
    samples = region_samples(3)
    points = {(xi, zeta) for xi, zeta, _ in samples}
    assert points == {
        (F(-1, 2), F(0)),
        (F(-1, 2), F(1, 8)),
        (F(-1, 2), F(1, 4)),
        (F(-1, 4), F(0)),
        (F(-1, 4), F(1, 8)),
        (F(0), F(0)),
    }
    for xi, zeta, labels in samples:
        assert zeta <= -xi / 2
        assert labels


@pytest.mark.parametrize("resolution", [*range(2, 13), 51])
def test_region_samples_agree_with_classify(resolution):
    # the reference: every grid point classified by the class definitions
    # written out in Fraction arithmetic, not by region_samples' own tests
    steps = resolution - 1
    expected = []
    for xi in (F(i, 2 * steps) - F(1, 2) for i in range(resolution)):
        for zeta in (F(j, 4 * steps) for j in range(resolution)):
            try:
                expected.append((xi, zeta, reference_classify(xi, zeta)))
            except OutsideAllowedRegion:
                pass
    samples = region_samples(resolution)
    assert samples == expected
    assert all(type(xi) is F and type(zeta) is F and type(labels) is set
               for xi, zeta, labels in samples)


def test_region_samples_rejects_small_resolution():
    with pytest.raises(ValueError):
        region_samples(1)


def test_region_samples_refuses_a_resolution_that_is_not_an_integer():
    for resolution in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="need an integer resolution"):
            region_samples(resolution)
    assert region_samples(np.int64(5)) == region_samples(5)


def test_region_coverage_at_moderate_resolution():
    for xi, zeta, labels in region_samples(41):
        assert len(labels) >= 1
