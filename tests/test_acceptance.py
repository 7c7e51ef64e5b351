"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import pdmkeo as pk
from pdmkeo.errors import ConstraintUnsatisfied, DualOutsideAllowedRegion, ParseError, WrongMomentumCount

GOLDEN = Path(__file__).parent / "golden" / "table1.json"
BUMP = lambda x: (1 - x**2) ** 2


@contextmanager
def criterion(num, title, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({title}): FAIL")
        raise
    dt = time.perf_counter() - t0
    if dt >= budget_s:
        print(f"ACCEPTANCE {num} ({title}): FAIL (runtime {dt:.2f}s >= {budget_s}s)")
        raise AssertionError(f"criterion {num} exceeded runtime budget: {dt:.2f}s")
    print(f"ACCEPTANCE {num} ({title}): PASS ({dt:.2f}s)")


def rational(rng, lo, hi, den=48):
    return lo + (hi - lo) * F(rng.randint(0, den), den)


def test_criterion_1_table_reproduction():
    fixed = {
        "BDD": (F(0), F(0)),
        "ZK": (F(-1, 2), F(1, 4)),
        "MM": (F(-1, 4), F(1, 16)),
        "GW": (F(-1, 2), F(0)),
        "LK": (F(-1, 4), F(0)),
        "W": (F(-1, 4), F(0)),
        "Lal": (F(-1, 3), F(0)),
        "YY": (F(-1, 3), F(1, 6)),
    }
    params = (F(-1, 2), F(-1, 3), F(-1, 5), F(-3, 7), F(1, 3))
    with criterion(1, "table reproduction", 1.0):
        for name, (xi, zeta) in fixed.items():
            lp = pk.linear_params(pk.catalog(name))
            assert lp.as_tuple() == (xi, zeta, F(0)), name
        for a in params:
            assert pk.linear_params(pk.catalog("MB", a)).as_tuple() == (a, a * a, 0)
            assert pk.linear_params(pk.catalog("LKDA", a)).as_tuple() == (a / 2, 0, 0)
            assert pk.linear_params(pk.catalog("DA", a)).as_tuple() == (0, 0, 0)
            for g in params:
                assert pk.linear_params(pk.catalog("vR", a, g)).as_tuple() == (
                    (a + g) / 2, a * g, 0,
                )


def test_criterion_2_inversion_round_trip():
    rng = random.Random(20240811)
    with criterion(2, "inversion round trip, 500 points/class", 5.0):
        for _ in range(500):
            a = rational(rng, F(-1, 2), F(0))
            g = rational(rng, F(-1, 2), F(0), den=60)
            # rational-surd vR and class-I points built from parameter pairs
            for cls, point in (
                ("vR", ((a + g) / 2, a * g)),
                ("I", ((a + g) / 2, (a * a + g * g) / 2)),
            ):
                lp = pk.linear_params(pk.invert(*point, cls))
                assert lp.as_tuple() == (*point, F(0))
            w = rational(rng, F(0), F(1, 2), den=36)
            alpha = rational(rng, F(-1, 2), F(0), den=36)
            point = (w * alpha, w * alpha * alpha)
            lp = pk.linear_params(pk.invert(*point, "II"))
            assert lp.as_tuple() == (*point, F(0))
            point = (
                w * (alpha + F(1, 2)) - F(1, 2),
                w * (alpha * alpha - F(1, 4)) + F(1, 4),
            )
            lp = pk.linear_params(pk.invert(*point, "III"))
            assert lp.as_tuple() == (*point, F(0))


def test_criterion_3_yan_yee_resolution():
    with criterion(3, "Yan-Yee resolution", 1.0):
        labels = pk.classify(F(-1, 3), F(1, 6))
        assert {lab.region for lab in labels} == {"III"}
        (label,) = labels
        assert label.boundaries == {"upper"}
        spec = pk.invert(F(-1, 3), F(1, 6), "III")
        assert spec.terms[0].w == F(1, 3)
        assert spec.terms[0].alpha == 0
        assert (spec.terms[1].w, spec.terms[1].alpha) == (F(2, 3), F(-1, 2))
        with pytest.raises(ConstraintUnsatisfied):
            pk.invert(F(-1, 3), F(1, 6), "vR")


def test_criterion_4_region_coverage_and_boundaries():
    with criterion(4, "201x201 coverage and boundary flags", 10.0):
        samples = pk.region_samples(201)
        assert samples
        mb_points = ii_points = iiii_points = 0
        for xi, zeta, labels in samples:
            assert len(labels) >= 1, (xi, zeta)
            regions = {lab.region for lab in labels}
            flags = set().union(*(lab.boundaries for lab in labels))
            if zeta == xi * xi:
                mb_points += 1
                assert {"vR", "I"} <= regions, (xi, zeta)
                for lab in labels:
                    if lab.region in ("vR", "I"):
                        assert "MB" in lab.boundaries, (xi, zeta)
            assert ("I/II" in flags) == (zeta == 2 * xi * xi), (xi, zeta)
            assert ("I/III" in flags) == (
                zeta == (xi + F(1, 2)) ** 2 + xi * xi
            ), (xi, zeta)
            ii_points += "I/II" in flags
            iiii_points += "I/III" in flags
        assert mb_points > 0 and ii_points > 0 and iiii_points > 0


def test_criterion_5_duality():
    rng = random.Random(5)
    with criterion(5, "duality involution and fixed points", 2.0):
        checked = 0
        while checked < 1000:
            xi = -F(rng.randint(0, 96), 384)  # in [-1/4, 0]
            lo = max(F(0), 2 * xi * xi + xi / 2)
            hi = 2 * xi * xi
            if hi < lo:
                continue
            zeta = lo + (hi - lo) * F(rng.randint(0, 24), 24)
            d = pk.to_duality(xi, zeta)
            assert pk.dual(pk.dual(d)) == d
            assert (pk.dual(d) == d) == (d.theta == 0)
            checked += 1
        for theta in (F(1, 16), F(-1, 16)):
            point = (F(-1, 4), F(1, 16) + theta)
            cls = "I" if point[1] > F(1, 16) else "vR"
            spec = pk.invert(*point, cls)
            values = {v for t in spec.terms for v in (t.alpha, t.gamma)}
            assert values == {F(0), F(-1, 2)}, theta
        with pytest.raises(DualOutsideAllowedRegion):
            pk.dual(pk.to_duality(F(-1, 2), F(0)))  # GW


def test_criterion_6_hermiticity_machine_precision():
    names = (
        "BDD", "GW", "ZK", "MM", "W", "LK", "Lal", "YY",
        "vR(-1/4,-1/2)", "MB(-1/3)", "LKDA(-1/3)", "DA(-1/2)",
    )
    with criterion(6, "Hermiticity at machine precision, n=500", 10.0):
        grid = pk.Grid(-1.0, 1.0, 500)
        profile = pk.lorentzian(m0=1, lam=1)  # m = 1/(1+x^2)
        for name in names:
            a = pk.assemble_terms(pk.catalog(name), profile, grid).matrix
            asym = np.max(np.abs(a - a.T))
            assert asym <= 1e-12 * np.max(np.abs(a)), name


def test_criterion_7_equivalence_oracle():
    names = ("ZK", "MM", "W", "LK", "Lal", "YY")
    profiles = (
        pk.cosine_bump(m0=1, lam=1),
        pk.gaussian_bump(m0=1, lam=1, sigma=F(1, 4)),
    )
    with criterion(7, "two-pathway equivalence oracle", 30.0):
        coarse, fine = pk.Grid(-1.0, 1.0, 200), pk.Grid(-1.0, 1.0, 400)
        for profile in profiles:
            for name in names:
                d1 = pk.equivalence_defect(pk.catalog(name), profile, coarse, BUMP)
                d2 = pk.equivalence_defect(pk.catalog(name), profile, fine, BUMP)
                assert 3.5 <= d1 / d2 <= 4.5, (name, profile.name, d1 / d2)
        for name in names + ("BDD",):
            assert pk.equivalence_defect(pk.catalog(name), pk.constant(1), coarse, BUMP) <= 1e-12
        for profile in profiles:
            assert pk.equivalence_defect(pk.catalog("BDD"), profile, coarse, BUMP) <= 1e-12


def test_criterion_8_spectral_sanity():
    with criterion(8, "constant-mass well spectrum, n=2000", 60.0):
        grid = pk.Grid(0.0, float(np.pi), 2000)
        result = pk.spectrum_of_spec(
            pk.catalog("BDD"), pk.constant(1), pk.zero_potential(), grid, 5
        )
        for computed, exact in zip(result.eigenvalues, (0.5, 2.0, 4.5, 8.0, 12.5)):
            assert abs(computed - exact) / exact < 0.01
        assert all(r <= 1e-9 for r in result.residuals)


def test_criterion_9_same_point_spectral_agreement():
    with criterion(9, "same-(xi,zeta) spectral agreement", 60.0):
        profile = pk.lorentzian(m0=1, lam=1)
        v = pk.zero_potential()

        def extrapolated_ground(name, n):
            grid = pk.Grid(-1, 1, n)
            e1 = pk.spectrum_of_spec(pk.catalog(name), profile, v, grid, 1).eigenvalues[0]
            e2 = pk.spectrum_of_spec(
                pk.catalog(name), profile, v, grid.refined(), 1
            ).eigenvalues[0]
            return pk.richardson(e1, e2)

        for a, b in (("LK", "W"), ("DA(1)", "BDD")):
            (ea, erra), (eb, errb) = extrapolated_ground(a, 400), extrapolated_ground(b, 400)
            assert abs(ea - eb) <= erra + errb, (a, b, abs(ea - eb), erra + errb)


def test_criterion_10_effective_potential():
    pairs = (
        (F(-1, 3), F(1, 6)),
        (F(-1, 2), F(1, 4)),
        (F(-1, 4), F(0)),
        (F(-1, 8), F(3, 64)),
        (F(-2, 5), F(1, 10)),
    )
    with criterion(10, "effective potential at the origin", 1.0):
        profile = pk.lorentzian(m0=1, lam=1)  # 1/m = 1 + x^2
        for xi, zeta in pairs:
            value = pk.effective_potential(pk.LinearParams(xi, zeta, 0), profile, 0.0)
            assert abs(value - float(xi)) <= 1e-12 * abs(float(xi))


MALFORMED = (
    "",
    "1/2 *",
    "1/2 * p m^(-1 p",
    "1/2 * p m^-1) p",
    "1/2 p m^(-1) p",
    "* p m^(-1) p",
    "1/2 * p q p",
    "1/2 * p m^() p",
    "1/2 * p m^(1/0) p",
    "1/2 * p m^(-1) p +",
    "1/2 * p m^(-1) p + * p",
    "1/2 ** p m^(-1) p",
    "-- 1/2 * p m^(-1) p",
    "1//2 * p m^(-1) p",
    "1/2 * P M^(-1) P",
    "1/2 * p 1/sqrt(x) p",
    "1/2 * p m^(-1) p 3",
    "1/2 3 * p p",
    "(1/2) * p m^(-1) p",
    "1/2 * p m p",
)

MOMENTUM_MALFORMED = ("1/2 * p m^(-1)", "1/2 * p p p m^(2)", "1/2 * m^(-1)")


def test_criterion_11_parser():
    names = (
        "BDD", "GW", "ZK", "MM", "W", "LK", "Lal", "YY",
        "vR(-1/4,-1/2)", "MB(-1/3)", "LKDA(-1/3)", "DA(-1/2)", "DA(1)",
    )
    with criterion(11, "parser round trips and diagnostics", 1.0):
        for name in names:
            spec = pk.catalog(name)
            text = pk.print_canonical(spec)
            assert pk.print_canonical(pk.parse(text)) == text, name
            assert pk.linear_params(pk.parse(text)) == pk.linear_params(spec)
        assert len(MALFORMED) == 20
        for text in MALFORMED:
            with pytest.raises(ParseError) as exc:
                pk.parse(text)
            assert 0 <= exc.value.position <= len(text), text
        for text in MOMENTUM_MALFORMED:
            with pytest.raises(WrongMomentumCount):
                pk.parse(text)


def test_cli_table_golden_byte_for_byte():
    # CLI determinism side of criterion 1's table: byte-identical golden output
    cp = subprocess.run(
        [sys.executable, "-m", "pdmkeo.cli", "table1"],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0
    assert cp.stdout == GOLDEN.read_text()
    rows = json.loads(cp.stdout)["rows"]
    assert len(rows) == 12
