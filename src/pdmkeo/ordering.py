"""Multi-term orderings of the position-dependent-mass kinetic operator.

An ordering is a weighted sum of building blocks

    T = 1/2 * sum_i w_i m^alpha_i p m^beta_i p m^gamma_i

with sum(w_i) = 1 and alpha_i + beta_i + gamma_i = -1 per term. Every
Hermitian ordering is characterized by two weighted means: xi (mean of
gamma) and zeta (mean of alpha*gamma); the mean of gamma minus the mean
of alpha (eta) measures the Hermiticity defect. All values are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintViolation, ParameterDomainError, UnknownOrdering, WeightSumViolation
from .surds import Surd, exact

Exact = Fraction | Surd

# consistency bounds on exponents; excursions are legal but worth flagging
_EXPONENT_LO = Fraction(-1)
_EXPONENT_HI = Fraction(0)


@dataclass(frozen=True)
class BuildingBlock:
    """One weighted term w * m^alpha p m^beta p m^gamma."""

    w: Exact
    alpha: Exact
    beta: Exact
    gamma: Exact

    def __post_init__(self):
        for name in ("w", "alpha", "beta", "gamma"):
            object.__setattr__(self, name, exact(getattr(self, name)))

    def exponent_sum(self) -> Exact:
        return self.alpha + self.beta + self.gamma


@dataclass(frozen=True)
class OrderingSpec:
    """Ordered list of building blocks, optionally labeled."""

    terms: tuple[BuildingBlock, ...]
    name: str | None = None

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("an ordering needs at least one term")
        object.__setattr__(self, "terms", terms)

    def weight_sum(self) -> Exact:
        total = Fraction(0)
        for t in self.terms:
            total = total + t.w
        return total


@dataclass(frozen=True)
class LinearParams:
    """Linear ambiguity parameters (xi, zeta) plus the Hermiticity defect eta."""

    xi: Fraction
    zeta: Fraction
    eta: Fraction

    def __post_init__(self):
        for name in ("xi", "zeta", "eta"):
            value = exact(getattr(self, name))
            if isinstance(value, Surd):
                value = value.as_fraction()
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.xi, self.zeta, self.eta)


def spec(term_data, name=None) -> OrderingSpec:
    """Build an OrderingSpec from (w, alpha, beta, gamma) tuples."""
    return OrderingSpec(tuple(BuildingBlock(*t) for t in term_data), name=name)


def check(s: OrderingSpec) -> None:
    """Raise if the hard constraints fail (weights sum, per-term exponent sum)."""
    total = s.weight_sum()
    if total != 1:
        raise WeightSumViolation(total)
    bad = [(i, t.exponent_sum()) for i, t in enumerate(s.terms) if t.exponent_sum() != -1]
    if bad:
        raise ConstraintViolation(bad)


def validate(s: OrderingSpec) -> list[str]:
    """Check the hard constraints; return non-fatal warnings.

    Errors (raised): weights must sum to 1, each term's exponents must sum
    to -1. Warnings (returned): exponents outside [-1, 0], which is
    conventional but not required.
    """
    check(s)
    warnings = []
    for i, t in enumerate(s.terms):
        out = [
            f"{name}={value}"
            for name, value in (("alpha", t.alpha), ("beta", t.beta), ("gamma", t.gamma))
            if value < _EXPONENT_LO or value > _EXPONENT_HI
        ]
        if out:
            warnings.append(f"term {i}: exponent(s) outside [-1, 0]: {', '.join(out)}")
    return warnings


_SELECTORS = ("alpha", "gamma", "alpha_gamma")


def weighted_mean(s: OrderingSpec, selector: str) -> Exact:
    """Weight-averaged alpha, gamma, or alpha*gamma over the terms."""
    if selector not in _SELECTORS:
        raise ValueError(f"selector must be one of {_SELECTORS}, got {selector!r}")
    check(s)
    return _mean(s, selector)


def _mean(s: OrderingSpec, selector: str) -> Exact:
    """`weighted_mean` for a spec that has already passed `check`."""
    total = Fraction(0)
    for t in s.terms:
        if selector == "alpha":
            x = t.alpha
        elif selector == "gamma":
            x = t.gamma
        else:
            x = t.alpha * t.gamma
        total = total + t.w * x
    return exact(total)


def linear_params(s: OrderingSpec) -> LinearParams:
    """Map an ordering to (xi, zeta, eta) = (mean gamma, mean alpha*gamma, mean gamma - mean alpha)."""
    check(s)
    mg = _mean(s, "gamma")
    ma = _mean(s, "alpha")
    mag = _mean(s, "alpha_gamma")
    return LinearParams(xi=mg, zeta=mag, eta=mg - ma)


def is_hermitian(s: OrderingSpec) -> bool:
    """True iff mean alpha equals mean gamma exactly."""
    check(s)
    return _mean(s, "alpha") == _mean(s, "gamma")


def canonicalize(s: OrderingSpec) -> OrderingSpec:
    """Sort terms by (alpha, beta, gamma), merge equal triples, drop zero weights."""
    merged: dict = {}
    for t in s.terms:
        key = (t.alpha, t.beta, t.gamma)
        merged[key] = merged[key] + t.w if key in merged else t.w
    keys = sorted(merged)
    terms = tuple(
        BuildingBlock(merged[k], *k) for k in keys if merged[k] != 0
    )
    if not terms:
        raise WeightSumViolation(0)
    return OrderingSpec(terms, name=s.name)


def _rat(x) -> Fraction:
    value = exact(x)
    if isinstance(value, Surd):
        raise ParameterDomainError(f"catalog parameters must be rational, got {x}")
    return value


def _catalog_bdd() -> tuple:
    return ((1, 0, -1, 0),)


def _catalog_gw() -> tuple:
    return ((Fraction(1, 2), -1, 0, 0), (Fraction(1, 2), 0, 0, -1))


def _catalog_zk() -> tuple:
    h = Fraction(1, 2)
    return ((1, -h, 0, -h),)


def _catalog_mm() -> tuple:
    q = Fraction(1, 4)
    return ((1, -q, -Fraction(1, 2), -q),)


def _catalog_w() -> tuple:
    return (
        (Fraction(1, 4), -1, 0, 0),
        (Fraction(1, 2), 0, -1, 0),
        (Fraction(1, 4), 0, 0, -1),
    )


def _catalog_lal() -> tuple:
    w = Fraction(1, 3)
    return ((w, -1, 0, 0), (w, 0, -1, 0), (w, 0, 0, -1))


def _catalog_yy() -> tuple:
    h = Fraction(1, 2)
    return ((Fraction(1, 3), 0, -1, 0), (Fraction(2, 3), -h, 0, -h))


def _catalog_mb(alpha) -> tuple:
    a = _rat(alpha)
    return ((1, a, -1 - 2 * a, a),)


def _catalog_lkda(alpha) -> tuple:
    a = _rat(alpha)
    b = -1 - a
    return ((Fraction(1, 2), a, b, 0), (Fraction(1, 2), 0, b, a))


def _catalog_lk() -> tuple:
    return _catalog_lkda(Fraction(-1, 2))


def _catalog_vr(alpha, gamma) -> tuple:
    a, g = _rat(alpha), _rat(gamma)
    b = -1 - a - g
    return ((Fraction(1, 2), a, b, g), (Fraction(1, 2), g, b, a))


def _catalog_da(alpha) -> tuple:
    a = _rat(alpha)
    if a == -1:
        raise ParameterDomainError("DA parameter must differ from -1 (weights diverge)")
    b = -1 - a
    den = 2 * (a + 1)
    return (
        (a / den, -1, 0, 0),
        (a / den, 0, 0, -1),
        (1 / den, a, b, 0),
        (1 / den, 0, b, a),
    )


# name -> (builder, number of rational parameters)
_CATALOG = {
    "BDD": (_catalog_bdd, 0),
    "GW": (_catalog_gw, 0),
    "ZK": (_catalog_zk, 0),
    "MM": (_catalog_mm, 0),
    "W": (_catalog_w, 0),
    "LK": (_catalog_lk, 0),
    "Lal": (_catalog_lal, 0),
    "YY": (_catalog_yy, 0),
    "MB": (_catalog_mb, 1),
    "LKDA": (_catalog_lkda, 1),
    "DA": (_catalog_da, 1),
    "vR": (_catalog_vr, 2),
}

_ALIASES = {name.lower(): name for name in _CATALOG}
_ALIASES.update({"weyl": "W", "l al.": "Lal", "lal.": "Lal", "vonroos": "vR", "von roos": "vR"})

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, *params) -> OrderingSpec:
    """Built-in named orderings (BenDaniel-Duke, Gora-Williams, Zhu-Kroemer,
    Mustafa-Mazharimousavi, Weyl, Li-Kuhn, Dutra-Almeida, Morrow-Brownstein,
    von Roos, Yan-Yee, ...). Parameterized families take rational arguments,
    either explicitly or inline: catalog("MB(-1/2)").
    """
    label = name.strip()
    if "(" in label:
        if params:
            raise UnknownOrdering(f"give parameters inline or separately, not both: {name!r}")
        if not label.endswith(")"):
            raise UnknownOrdering(f"malformed ordering name {name!r}")
        base, _, arg_text = label[:-1].partition("(")
        label = base.strip()
        args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
        try:
            params = tuple(Fraction(a) for a in args)
        except (ValueError, ZeroDivisionError):
            raise UnknownOrdering(f"malformed parameter in ordering name {name!r}") from None
    key = _ALIASES.get(label.lower())
    if key is None:
        raise UnknownOrdering(f"unknown ordering {name!r}; known: {', '.join(_CATALOG)}")
    builder, arity = _CATALOG[key]
    if len(params) != arity:
        raise UnknownOrdering(
            f"{key} takes {arity} parameter(s), got {len(params)}"
        )
    display = key if arity == 0 else f"{key}({','.join(str(_rat(p)) for p in params)})"
    return spec(builder(*params), name=display)
