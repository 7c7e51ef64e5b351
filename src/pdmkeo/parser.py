"""Text form of kinetic-operator orderings.

Grammar (ASCII, whitespace separates factors):

    expr     := term (('+' | '-') term)*
    term     := [rational '*'] factor+
    factor   := 'p' | 'p^2' | 'm^(' rational ')' | '1/m' | '1/sqrt(m)'
    rational := ['-'] int ['/' int]

Each additive term must contain exactly two momentum factors and
normalizes to m^alpha p m^beta p m^gamma. The printed coefficient
includes the physical 1/2, so term weights are twice the coefficients
and the coefficients of a valid expression sum to 1/2.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import KeoError, ParseError, WrongMomentumCount
from .ordering import BuildingBlock, OrderingSpec, canonicalize

_TOKEN_SPEC = (
    ("INVSQRTM", r"1/sqrt\(m\)"),
    ("INVM", r"1/m"),
    ("PSQ", r"p\^2"),
    ("P", r"p"),
    ("MOPEN", r"m\^\("),
    ("RPAREN", r"\)"),
    ("INT", r"\d+"),
    ("SLASH", r"/"),
    ("STAR", r"\*"),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("WS", r"\s+"),
)
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_FACTOR_STARTS = ("P", "PSQ", "MOPEN", "INVM", "INVSQRTM")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self, *expected):
        kind, value, pos = self.tokens[self.i]
        if expected and kind not in expected:
            raise ParseError(f"unexpected {value or 'end of input'!r}", pos, expected)
        self.i += 1
        return kind, value, pos

    def rational(self) -> Fraction:
        sign = 1
        if self.peek() == "MINUS":
            self.next()
            sign = -1
        _, num, _ = self.next("INT")
        den = 1
        if self.peek() == "SLASH":
            self.next()
            _, den, pos = self.next("INT")
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
        return Fraction(sign * int(num), int(den))

    def term(self):
        coeff = Fraction(1)
        if self.peek() in ("INT", "MINUS"):
            coeff = self.rational()
            self.next("STAR")
        factors = []  # 'p' or Fraction mass exponents
        while self.peek() in _FACTOR_STARTS:
            kind, _, _ = self.next()
            if kind == "P":
                factors.append("p")
            elif kind == "PSQ":
                factors.extend(("p", "p"))
            elif kind == "INVM":
                factors.append(Fraction(-1))
            elif kind == "INVSQRTM":
                factors.append(Fraction(-1, 2))
            else:  # MOPEN
                factors.append(self.rational())
                self.next("RPAREN")
        if not factors:
            kind, value, pos = self.tokens[self.i]
            raise ParseError(
                f"expected a factor, found {value or 'end of input'!r}", pos, _FACTOR_STARTS
            )
        return coeff, factors

    def expr(self):
        terms = [self.term()]
        while self.peek() in ("PLUS", "MINUS"):
            kind, _, _ = self.next()
            coeff, factors = self.term()
            if kind == "MINUS":
                coeff = -coeff
            terms.append((coeff, factors))
        self.next("EOF")
        return terms


def _normalize_term(index: int, factors) -> tuple[Fraction, Fraction, Fraction]:
    """Sum the mass exponents before, between and after exactly two p's into
    (alpha, beta, gamma)."""
    slots = [Fraction(0)]
    for f in factors:
        if f == "p":
            slots.append(Fraction(0))
        else:
            slots[-1] += f
    if len(slots) != 3:
        raise WrongMomentumCount(index, len(slots) - 1)
    return tuple(slots)


def parse(text: str) -> OrderingSpec:
    """Parse an expression into an ordering; weights are 2x the coefficients."""
    raw_terms = _Parser(text).expr()
    blocks = []
    for index, (coeff, factors) in enumerate(raw_terms):
        alpha, beta, gamma = _normalize_term(index, factors)
        blocks.append(BuildingBlock(2 * coeff, alpha, beta, gamma))
    return OrderingSpec(tuple(blocks))


def _format_rational(x) -> str:
    if not isinstance(x, (int, Fraction)):
        raise KeoError(f"{x} is not representable in the expression grammar")
    return str(x)


def _format_term(block: BuildingBlock) -> str:
    parts = []
    for exponent, tail in ((block.alpha, "p"), (block.beta, "p"), (block.gamma, None)):
        if exponent != 0:
            parts.append(f"m^({_format_rational(exponent)})")
        if tail:
            parts.append(tail)
    return " ".join(parts)


def print_canonical(spec: OrderingSpec) -> str:
    """Deterministic canonical text: terms sorted by (alpha, beta, gamma),
    duplicates merged, coefficients printed as exact rationals."""
    canon = canonicalize(spec)
    pieces = []
    for i, block in enumerate(canon.terms):
        coeff = block.w / 2
        body = _format_term(block)
        if i == 0:
            pieces.append(f"{_format_rational(coeff)} * {body}")
        elif coeff < 0:
            pieces.append(f"- {_format_rational(-coeff)} * {body}")
        else:
            pieces.append(f"+ {_format_rational(coeff)} * {body}")
    return " ".join(pieces)
