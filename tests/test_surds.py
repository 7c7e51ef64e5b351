import decimal
import math
import random
from fractions import Fraction as F

import pytest

from pdmkeo.surds import Surd, _split_square, exact, float_sqrt, rational


def test_sqrt_normalizes_square_factors():
    assert Surd.sqrt(8) == Surd(0, 2, 2)
    assert Surd.sqrt(F(9, 4)) == F(3, 2)
    assert Surd.sqrt(F(1, 32)) == Surd(0, F(1, 8), 2)
    assert Surd.sqrt(0) == 0
    assert Surd.sqrt(49) == 7


def test_split_square_matches_trial_division_by_every_square():
    def reference(n):
        s, d, i = 1, n, 2
        while i * i <= d:
            if d % (i * i) == 0:
                s, d = s * i, d // (i * i)
            else:
                i += 1
        return s, d

    cases = list(range(1, 3000)) + [1000003**2, 1000003**2 * 6, 999983 * 1000003,
                                    65537**3, 2**62, 3**39]
    for n in cases:
        assert _split_square(n) == reference(n)
    # beyond the reference's reach: a squarefree prime, and a prime squared
    assert _split_square(2**61 - 1) == (1, 2**61 - 1)
    assert _split_square((2**31 - 1) ** 2) == (2**31 - 1, 1)


def test_sqrt_beyond_the_factoring_cap_is_refused():
    # 10^20 + 39 has no prime factor below 2^21 and is above 2^63
    with pytest.raises(ValueError, match="exact square root out of reach"):
        Surd.sqrt(F(1, 10**20 + 39))
    # a square is within reach at any size, its root found by isqrt
    assert Surd.sqrt(F(1, 1000000007**2)) == F(1, 1000000007)
    assert Surd.sqrt(F(4 * (10**20 + 39) ** 2, 9)) == F(2 * (10**20 + 39), 3)
    assert Surd.sqrt(F(3 * (10**20 + 39) ** 2)) == Surd(0, 10**20 + 39, 3)


def test_float_sqrt_is_the_nearest_float():
    # against 120-digit decimal roots, whose conversion to float rounds once;
    # exact roots, huge and tiny radicands and subnormal roots included
    rng = random.Random(11)
    cases = [F(1, 10**20 + 39), F(1, 1000000007) ** 2 - F(1, 10**20 + 39), F(9, 4), F(2),
             F(3, 2**2200), F(10**400 + 1, 7)]
    cases += [F(rng.randint(1, 10**rng.randint(1, 40)), rng.randint(1, 10**rng.randint(1, 40)))
              for _ in range(300)]
    cases += [F(rng.randint(1, 2**60), 2**rng.randint(0, 2200)) for _ in range(300)]
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        for r in cases:
            root = float_sqrt(r)
            assert isinstance(root, F)
            expected = float((decimal.Decimal(r.numerator) / decimal.Decimal(r.denominator)).sqrt())
            assert float(root) == expected, r
            assert F(float(root)) == root


def test_rational_refuses_an_irrational_value():
    assert rational(Surd(F(1, 3))) == F(1, 3) and type(rational(Surd(F(1, 3)))) is F
    assert rational("-1/3") == F(-1, 3) and rational(0.5) == F(1, 2)
    with pytest.raises(ArithmeticError, match="irrational"):
        rational(Surd.sqrt(2))


def test_sqrt_of_negative_rejected():
    with pytest.raises(ValueError):
        Surd.sqrt(-1)


def test_rational_collapse():
    assert Surd(F(1, 2), 0, 7).is_rational
    assert Surd(F(1, 2), F(1, 3), 1) == F(5, 6)
    assert Surd(1, 2, 4) == 5  # sqrt(4) = 2


def test_arithmetic_same_field():
    r2 = Surd.sqrt(2)
    x = F(1, 2) + r2
    y = F(1, 2) - r2
    assert x + y == 1
    assert x * y == F(1, 4) - 2
    assert x - x == 0
    assert (x * 3) / 3 == x
    assert 1 / r2 == Surd(0, F(1, 2), 2)


def test_conjugate_products_are_rational():
    s = Surd.sqrt(F(1, 32))
    alpha, gamma = F(-1, 4) + s, F(-1, 4) - s
    assert exact(alpha * gamma) == F(1, 32)
    assert exact((alpha + gamma) / 2) == F(-1, 4)


def test_mixed_radicands_rejected():
    with pytest.raises(ArithmeticError):
        Surd.sqrt(2) + Surd.sqrt(3)
    with pytest.raises(ArithmeticError):
        Surd.sqrt(2) * Surd.sqrt(5)


def test_exact_ordering():
    r2 = Surd.sqrt(2)
    assert F(7, 5) < r2 < F(3, 2)
    assert -r2 < -F(7, 5)
    assert r2 > 1
    assert sorted([r2, F(1, 2), -r2, 0]) == [-r2, 0, F(1, 2), r2]


def test_float_value():
    assert math.isclose(float(Surd(F(-1, 4), F(1, 8), 2)), -0.25 + math.sqrt(2) / 8, rel_tol=1e-15)


def test_str_forms():
    assert str(Surd.sqrt(2)) == "sqrt(2)"
    assert str(-Surd.sqrt(2)) == "-sqrt(2)"
    assert str(Surd(F(-1, 4), F(1, 8), 2)) == "-1/4+1/8*sqrt(2)"
    assert str(Surd(F(-1, 4), F(-1, 8), 2)) == "-1/4-1/8*sqrt(2)"
    assert str(Surd(F(3, 2))) == "3/2"


def test_as_fraction_requires_rational():
    with pytest.raises(ArithmeticError):
        Surd.sqrt(2).as_fraction()
    assert Surd(F(2, 3)).as_fraction() == F(2, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Surd.sqrt(2) / 0


def test_ordering_across_radicands_is_exact():
    # q + sqrt(3) exceeds sqrt(2) by 1e-20, far below float resolution
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        q = F(str(ctx.sqrt(2) - ctx.sqrt(3))) + F(1, 10**20)
    left, right = Surd(q, 1, 3), Surd(0, 1, 2)
    assert float(left) < float(right)  # floats get the order wrong
    assert right < left and not left < right
    assert -left < -right and not -right < -left
    assert Surd(q - F(2, 10**20), 1, 3) < right
    assert sorted([Surd.sqrt(3), F(3, 2), Surd.sqrt(2), -Surd.sqrt(5)]) == [
        -Surd.sqrt(5), Surd.sqrt(2), F(3, 2), Surd.sqrt(3)]
