"""Element literal parser.

Grammar (whitespace ignored):

    expr   := ["-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*     (at most one factor a sum, none nested)
    factor := int ("/" int)? | ("pi" | "g" | int) ("^" ["-"] int)? | "(" expr ")"

"g" names the residue generator, only in unramified fields, where a printed
digit reads "(g + 1)*pi^3".  A literal is an exact value read modulo pi^prec:
each monomial r * pi^a * g^b * prod m^k is one raw term of field._sum_terms,
whose shift is its own valuation (from the p-valuations of r and the m, no
power of p formed) and whose unit is reduced modulo pi^(prec - shift), so the
sum is known to pi^prec.  A term below pi^-MAX_PREC is refused.
"""

from __future__ import annotations

import re

from .errors import DenominatorNotInvertible, ParseError
from .field import (_COUNT_DIGITS, MAX_PREC, FieldDescriptor, PadicElement, _ceil_div,
                    _rational_unit, _split_rational, _sum_terms)

_TOKEN = re.compile(r"\s*(?:(\d+)|(pi|g)|([+\-*/^()]))")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected input at position {pos}: {text[pos:pos+8]!r}")
        if len(m.group(1) or "") > _COUNT_DIGITS:
            raise ParseError(f"an integer of more than {_COUNT_DIGITS} digits at position {pos}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return out


class _Parser:
    """Reads a literal into monomials n/d * pi^a * g^b * prod m^k, as (n, d, a, b, ((m, k), ...))."""

    def __init__(self, tokens: list[str], field: FieldDescriptor):
        self.tokens = tokens
        self.i = 0
        self.field = field

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        if self.peek() != tok:
            return False
        self.i += 1
        return True

    def expect_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r}")
        return sign * int(tok)

    def parse_factor(self, nested: bool) -> list[tuple]:
        tok = self.take()
        if tok == "(" and not nested:
            inner = self.parse_expr(nested=True)
            if self.take() != ")":
                raise ParseError(f"expected ')', found {self.tokens[self.i - 1]!r}")
            return inner
        if tok not in ("pi", "g") and not tok.isdigit():
            raise ParseError(f"expected a number, pi or g, found {tok!r}")
        if tok.isdigit() and self.peek() != "^":
            den = self.take() if self.accept("/") else "1"
            if not den.isdigit() or int(den) == 0:
                raise ParseError(f"expected a nonzero denominator, found {den!r}")
            return [(int(tok), int(den), 0, 0, ())]
        k = self.expect_int() if self.accept("^") else 1
        if tok == "g" and self.field.kind != "unramified":
            raise ParseError("residue generator 'g' needs an unramified field")
        if tok in ("pi", "g"):
            return [(1, 1, k, 0, ()) if tok == "pi" else (1, 1, 0, k, ())]
        if int(tok) == 0 and k < 0:
            raise ParseError(f"zero to the power {k}")
        # 0^k is 0, or 1 if k = 0, and only a nonzero base has a valuation
        return [(0 ** k, 1, 0, 0, ()) if int(tok) == 0 else (1, 1, 0, 0, ((int(tok), k),))]

    def parse_term(self, nested: bool) -> list[tuple]:
        factors = [self.parse_factor(nested)]
        while self.accept("*"):
            factors.append(self.parse_factor(nested))
        factors.sort(key=len)   # the one sum, if any, last, so it is expanded once
        if len(factors) > 1 and len(factors[-2]) > 1:
            raise ParseError("at most one factor of a term may be a sum")
        out = factors[0]
        for nxt in factors[1:]:
            out = [(x[0] * y[0], x[1] * y[1], x[2] + y[2], x[3] + y[3], x[4] + y[4])
                   for x in out for y in nxt]
        return out

    def parse_expr(self, nested: bool = False) -> list[tuple]:
        out, sign = [], -1 if self.accept("-") else 1
        while True:
            out += [(sign * x[0],) + x[1:] for x in self.parse_term(nested)]
            if self.peek() not in ("+", "-"):
                return out
            sign = 1 if self.take() == "+" else -1


def _raw_term(field: FieldDescriptor, prec: int, monomial: tuple) -> tuple:
    """A monomial as a (prec, shift, vec) term of _sum_terms: shift is its
    valuation and vec its unit modulo pi^(prec - shift)."""
    n, d, a, b, powers = monomial
    if not n:
        return prec, 0, None
    p, e = field.p, field.e
    w = _split_rational(p, n, d)[0]
    shift = a + e * (w + sum(k * _split_rational(p, m, 1)[0] for m, k in powers))
    if shift < -MAX_PREC:
        raise DenominatorNotInvertible(f"a term of the literal lies below pi^-{MAX_PREC}")
    if shift >= prec:
        return prec, shift, None
    mod = p ** _ceil_div(prec - shift, e)
    unit = _rational_unit(field, n, d, mod)[1]
    for m, k in powers:
        unit = unit * pow(_rational_unit(field, m, 1, mod)[1], k, mod) % mod
    if not b:
        return prec, shift, (unit,) + (0,) * (field.coeff_len - 1)
    g = PadicElement(field, 0, (0, 1) + (0,) * (field.f - 2), prec - shift) ** b
    return prec, shift, [unit * x for x in g.coeffs]


def parse_element(text: str, field: FieldDescriptor, prec: int) -> PadicElement:
    """The element literal ``text``, an exact value, known modulo pi^prec.

    A trailing precision marker "+ O(pi^N)" (as printed by the canonical
    display) is accepted and tightens the precision to min(prec, N), so a
    printed element reads back equal.
    """
    marker = re.search(r"\+?\s*O\(pi\^(-?\d+)\)\s*$", text)
    if marker:
        if len(marker.group(1).lstrip("-")) > _COUNT_DIGITS:
            raise ParseError(f"a precision marker of more than {_COUNT_DIGITS} digits")
        prec = min(prec, int(marker.group(1)))
        text = text[: marker.start()].strip()
        if not text:
            return PadicElement.zero(field, prec)
    parser = _Parser(_tokenize(text), field)
    monomials = parser.parse_expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.tokens[parser.i:]!r}")
    return _sum_terms(field, (_raw_term(field, prec, m) for m in monomials), prec)
