"""Exact quadratic surds a + b*sqrt(d) over the rationals.

Inversion of a (xi, zeta) point into a two-term ordering needs square
roots of rationals. Keeping them symbolic (rational a, b and squarefree
integer d) lets round-trips back to (xi, zeta) stay exact: conjugate
pairs cancel in the weighted means.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from .errors import KeoError


# trial division stops here; it decides every n below _TRIAL_LIMIT^3 = 2^63
_TRIAL_LIMIT = 1 << 21


def _split_square(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree, for n >= 1. Each of
    i = 2, 3, 5, 7, 9, ... (a composite i no longer divides) is divided out
    while i^3 <= the cofactor c, which leaves c with at most two prime
    factors: c is p*p, which `math.isqrt` finds, or it is squarefree. A
    cofactor still above i^3 once i passes `_TRIAL_LIMIT` (above 2^63, so n
    is too) is a KeoError, unless it is a square."""
    s, d, c, i = 1, 1, n, 2
    while i * i * i <= c and i <= _TRIAL_LIMIT:
        e = 0
        while c % i == 0:
            c //= i
            e += 1
        s *= i ** (e // 2)
        d *= i ** (e % 2)
        i += 1 if i == 2 else 2
    r = math.isqrt(c)
    if r * r == c:
        return s * r, d
    if i * i * i <= c:
        raise KeoError(f"exact square root out of reach: {n} has a part above 2^63 "
                         f"free of primes below 2^21")
    return s, d * c


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot interpret {x!r} as a rational")


@total_ordering
class Surd:
    """Exact value a + b*sqrt(d), normalized so d is squarefree and d = 1
    collapses the value to the rational a.

    Arithmetic stays within one quadratic field: combining two surds with
    different irrational parts raises ArithmeticError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        a = _as_fraction(a)
        b = _as_fraction(b)
        d = int(d)
        if d < 0:
            raise KeoError(f"negative radicand {d}")
        if b != 0 and d > 1:
            s, d = _split_square(d)
            b *= s
        self._set(a, b, d)

    def _set(self, a: Fraction, b: Fraction, d: int) -> None:
        if d <= 1 or b == 0:
            # sqrt(0) = 0, sqrt(1) = 1: fold into the rational part
            a, b, d = a + b * d, Fraction(0), 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "Surd":
        """a + b*sqrt(d) for a squarefree d, as arithmetic in one field
        yields: d is not split again."""
        out = object.__new__(cls)
        out._set(a, b, d)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    @classmethod
    def sqrt(cls, r) -> "Surd":
        """Exact square root of a non-negative rational."""
        r = _as_fraction(r)
        if r < 0:
            raise KeoError(f"square root of negative rational {r}")
        if r == 0:
            return cls(0)
        # sqrt(p/q) = sqrt(p*q)/q, and p*q = (s1*s2)^2 (d1*d2) with d1*d2
        # squarefree, p and q being coprime
        (s1, d1), (s2, d2) = _split_square(r.numerator), _split_square(r.denominator)
        return cls._of(Fraction(0), Fraction(s1 * s2, r.denominator), d1 * d2)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ArithmeticError(f"{self} is irrational")
        return self.a

    def _coerce(self, other):
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd(other)
        return None

    def _common_d(self, other: "Surd") -> int:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ArithmeticError(
                f"incompatible radicands sqrt({self.d}) and sqrt({other.d})"
            )
        return self.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return Surd._of(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd._of(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return Surd._of(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        norm = o.a * o.a - o.b * o.b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        num = self * Surd._of(o.a, -o.b, d)
        return Surd._of(num.a / norm, num.b / norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def _sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d (cannot be equal, d squarefree > 1)
        rational_wins = a * a > b * b * d
        if a > 0:
            return 1 if rational_wins else -1
        return -1 if rational_wins else 1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.d == o.d)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b == 0 or o.b == 0 or self.d == o.d:
            return (self - o)._sign() < 0
        # different fields: self < o exactly when r = self - o.a, in self's
        # field, is below o.b*sqrt(o.d); equal signs compare by squares,
        # which lie in self's field too (they are never equal)
        r = self - o.a
        r_sign, o_sign = r._sign(), (1 if o.b > 0 else -1)
        if r_sign != o_sign:
            return r_sign < o_sign
        return (r * r - o.b * o.b * o.d)._sign() == -o_sign

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if abs(self.b) != 1:
            root = f"{abs(self.b)}*{root}"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return f"-{root}" if self.b < 0 else root
        return f"{self.a}{sign}{root}"

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r}, {self.d})"


def exact(x) -> Fraction | Surd:
    """Coerce to an exact scalar: Fraction for rational input, Surd kept as is."""
    if isinstance(x, Surd):
        return x.as_fraction() if x.is_rational else x
    return _as_fraction(x)


def rational(x) -> Fraction:
    """`exact(x)` for a value that must be rational: an irrational one is an
    ArithmeticError."""
    return x.as_fraction() if isinstance(x, Surd) else _as_fraction(x)


def float_sqrt(r: Fraction) -> Fraction:
    """The float nearest sqrt(r), for a positive rational r, as a binary
    Fraction, found without factoring. With p/q = r * 4^k >= 2^108, the
    integer root m = isqrt(p // q) has at least 55 bits, so every rounding
    boundary of m / 2^k is an even m; an inexact root sets m's last bit
    (sticky), which leaves it on the same side of each boundary as the true
    root, and int / int rounds correctly (subnormals too)."""
    k = (110 + r.denominator.bit_length() - r.numerator.bit_length()) // 2
    p, q = r.numerator << max(2 * k, 0), r.denominator << max(-2 * k, 0)
    t, rest = divmod(p, q)
    m = math.isqrt(t)
    if rest or m * m != t:
        m |= 1
    return Fraction(float(m * Fraction(2) ** -k))
