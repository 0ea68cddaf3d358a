"""Finite-precision arithmetic in Q_p and supported finite extensions.

Every field is the fraction field of Z_p[x]/(F), F monic of degree e*f (the
F of each kind is in FieldDescriptor), and pi^e = c*p.  An element is stored
as pi^shift * unit, the unit a vector of e*f integers on 1, x, ..., x^(e*f-1):
entry i sits at pi-offset i % e, modulo p^ceil((rel_prec - i % e)/e).  e = 1
or f = 1, so x = pi when f = 1 and pi = p when f > 1.

Absolute precision N means the value is known modulo pi^N.  Valuations are
normalised so that v(p) = 1; the value group is (1/e)*Z.  Internally a
valuation is the integer shift in pi-units (for an imprecise zero, its lower
bound abs_prec), and every comparison is made on those integers; the rational
v = shift/e is built only for ValuationResult, Ball, RVClass and messages.
An int or Fraction operand is exact: x + m, x - m and m - x keep x's
abs_prec, and x * m and m / x keep x's relative precision; no operand is
given a precision of its own.  Each rule is written once: every sum or
difference (an int m as the raw vector (m, 0, ..., 0), no Fraction built)
is one aligned _sum_terms, reduced once, and _product_term and
_rational_unit give a product's term and a rational's unit, to the series
layer too.  _int_combination reduces sum k_i * x_i + m (ints k_i and m)
once, for the Tate-series coefficients.  The coefficient kernels read
(p, e, f, c, F), never the kind.  They keep two fast paths, as Q_p at
moderate precision ran a third slower without them: a length-1 vector
(no loop over entries) and pi = p (a shift is one power of p).
All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    DivisionByImpreciseZero,
    FieldMismatch,
    InsufficientPrecision,
    NonUnitEisensteinConstant,
    NotPrime,
    ReducibleDefiningPolynomial,
    ZeroElement,
)

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDescriptor:
    """Q_p or a single-layer finite extension: the ring Z_p[x]/(F), F monic.

    * base: F = x - p, so e = f = c = 1 and x = pi = p;
    * eisenstein: F = x^e - c*p, so f = 1 and x = pi;
    * unramified: F = residue_poly, irreducible mod p of degree f, so e = 1,
      pi = p and x is the residue generator g.

    kind is a label, read by __str__, make_field, parse_extension, the
    parser (which names g) and the harness grid; the arithmetic reads only
    p, e, f, c and F.
    """

    p: int
    kind: str                    # "base" | "eisenstein" | "unramified"
    e: int = 1                   # ramification index, v(pi) = 1/e
    f: int = 1                   # residue degree
    eis_unit: int = 1            # c with pi^e = c*p (1 unless eisenstein)
    residue_poly: tuple[int, ...] = ()   # monic integer poly, low -> high

    @property
    def coeff_len(self) -> int:
        return self.e * self.f

    def __str__(self) -> str:
        if self.kind == "base":
            return f"Q_{self.p}"
        if self.kind == "eisenstein":
            return f"Q_{self.p}[pi]/(pi^{self.e} - ({self.eis_unit})*{self.p})"
        terms = _poly_str(self.residue_poly)
        return f"Q_{self.p}[g]/({terms})"


def _poly_str(coeffs: Sequence[int]) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*g" if c != 1 else "g")
        else:
            parts.append(f"{c}*g^{i}" if c != 1 else f"g^{i}")
    return " + ".join(reversed(parts)) if parts else "0"


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _PRIME_BASES, which is exact for n < _PRIME_LIMIT.

    Larger n raise ValueError instead of a verdict that could be wrong.
    """
    if n >= _PRIME_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {_PRIME_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of num by den over F_p, lists low -> high.

    den's last coefficient must be nonzero mod p; the remainder drops its
    trailing zeros.  Entries are reduced mod p only where they are read.
    """
    d = len(den) - 1
    rem = list(num)
    inv = pow(den[-1], -1, p)
    quot = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % p * inv % p
        if c:
            quot[i - d] = c
            for j in range(d):
                rem[i - d + j] -= c * den[j]
    rem = [x % p for x in rem[:d]]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _poly_inverse(a: Sequence[int], g: Sequence[int], p: int) -> Optional[list[int]]:
    """Inverse of a modulo g over F_p by the extended Euclidean algorithm,
    or None when gcd(a, g) != 1.  g is reduced mod p with a nonzero last
    coefficient and a has fewer entries than g."""
    r0, r1 = g, [x % p for x in a]
    while r1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [], [1]                          # s_i * a = r_i mod g
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1, p)
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
        for k, c in enumerate(q):             # one scaled subtraction per term
            if c:
                for j, x in enumerate(s1):
                    s[k + j] -= c * x
        s = [x % p for x in s]
        while s and s[-1] == 0:
            s.pop()
        r0, r1, s0, s1 = r1, r, s1, s
    if not r1:                                # the gcd r0 is not constant
        return None
    scale = pow(r1[0], -1, p)
    return [x * scale % p for x in s1]


def _poly_pow_rem(a: list[int], n: int, g: Sequence[int], p: int) -> list[int]:
    """a^n modulo the monic g over F_p, by square-and-multiply."""

    def mul(x, y):
        prod = [0] * (len(x) + len(y))
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        return _poly_divmod(prod, g, p)[1]

    out = [1]
    while n:
        if n & 1:
            out = mul(out, a)
        a = mul(a, a)
        n >>= 1
    return out


def _irreducible_mod_p(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's test: a monic g of degree f >= 2 is irreducible over F_p iff
    x^(p^f) = x mod g and gcd(x^(p^(f/r)) - x, g) = 1 for each prime r | f."""
    g = [c % p for c in coeffs]
    f = len(g) - 1
    frob = [[0, 1]]                           # x^(p^k) mod g for k = 0..f
    for _ in range(f):
        frob.append(_poly_pow_rem(frob[-1], p, g, p))
    if frob[f] != frob[0]:
        return False
    for r in range(2, f + 1):
        if f % r or not _is_prime(r):
            continue
        h = [u - v for u, v in itertools.zip_longest(frob[f // r], frob[0], fillvalue=0)]
        if _poly_inverse(h, g, p) is None:
            return False
    return True


def _find_unramified_poly(p: int, f: int) -> tuple[int, ...]:
    """Smallest (lexicographic in low coefficients) monic irreducible of degree f.

    Candidates are read lazily as the base-p digits of an index, constant
    term first; those with constant term 0 are divisible by x and skipped.
    """
    for index in range(p ** (f - 1), p ** f):
        tail = [index // p ** (f - 1 - i) % p for i in range(f)]
        if _irreducible_mod_p(tail + [1], p):
            return tuple(tail + [1])
    raise ReducibleDefiningPolynomial(f"no irreducible polynomial of degree {f} mod {p}")


def make_field(p: int, kind: str = "base", *, e: int | None = None,
               c: int | None = None, f: int | None = None,
               poly: Sequence[int] | None = None) -> FieldDescriptor:
    """Build and validate a field descriptor.

    kind="eisenstein" requires 1 <= e <= 64 and a defining unit c coprime
    to p (pi^e = c*p).  kind="unramified" requires either a residue degree f
    (a defining polynomial is searched for) or an explicit monic integer
    polynomial, irreducible mod p, given low-to-high.  Irreducibility is
    decided by Rabin's test.  Every element carries e (or f) coefficients
    and multiplication costs grow with their square, so, as both arrive
    from the command line, e is capped at 64 and f at 8.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if kind == "base":
        return FieldDescriptor(p=p, kind="base")
    if kind == "eisenstein":
        if e is None or e < 1:
            raise ValueError("eisenstein extension needs a ramification index e >= 1")
        if e > 64:
            raise ValueError("eisenstein extensions support ramification index <= 64")
        if c is None:
            c = 1
        if c == 0 or math.gcd(c, p) != 1:
            raise NonUnitEisensteinConstant(f"c = {c} is not a unit mod {p}")
        return FieldDescriptor(p=p, kind="eisenstein", e=e, eis_unit=c)
    if kind == "unramified":
        if poly is not None:
            coeffs = tuple(int(x) for x in poly)
            if len(coeffs) < 3 or coeffs[-1] != 1:
                raise ReducibleDefiningPolynomial(
                    "defining polynomial must be monic of degree >= 2")
            f = len(coeffs) - 1
        elif f is None or f < 2:
            raise ValueError("unramified extension needs f >= 2 or an explicit polynomial")
        if f > 8:
            raise ValueError("unramified extensions support degree <= 8")
        if poly is None:
            coeffs = _find_unramified_poly(p, f)
        elif not _irreducible_mod_p(coeffs, p):
            raise ReducibleDefiningPolynomial(f"{list(coeffs)} factors modulo {p}")
        return FieldDescriptor(p=p, kind="unramified", f=f, residue_poly=coeffs)
    raise ValueError(f"unknown field kind {kind!r}")


def parse_extension(p: int, ext: str) -> FieldDescriptor:
    """Extension strings: 'base', 'eisenstein:e=4,c=-1',
    'unramified:f=2', 'unramified:poly=1,1,1' (coefficients low to high)."""
    ext = (ext or "base").strip()
    if ext in ("", "base"):
        return make_field(p)
    kind, _, args = ext.partition(":")

    def integer(key: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{key}: {text!r} is not an integer in {ext!r}") from None

    if kind == "unramified" and args.startswith("poly="):
        coeffs = [integer("poly", x) for x in args[len("poly="):].split(",")]
        return make_field(p, "unramified", poly=coeffs)
    keys = {"eisenstein": ("e", "c"), "unramified": ("f",)}.get(kind)
    if keys is None:
        raise ValueError(f"unknown extension {ext!r}")
    fields = {}
    for chunk in args.split(",") if args else ():
        key, _, val = chunk.partition("=")
        key = key.strip()
        if key not in keys or key in fields:
            raise ValueError(f"{kind} accepts only {' and '.join(keys)}, each at most once: {ext!r}")
        fields[key] = integer(key, val)
    if kind == "eisenstein":
        return make_field(p, "eisenstein", e=fields.get("e", 2), c=fields.get("c", 1))
    return make_field(p, "unramified", f=fields.get("f", 2))


# ---------------------------------------------------------------------------
# valuation results and leading-term classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValuationResult:
    """Exact valuation, or a lower bound when every known digit vanishes."""

    tag: str            # "exact" | "at_least"
    value: Fraction

    @property
    def is_exact(self) -> bool:
        return self.tag == "exact"

    def at_least(self, bound: Rational) -> bool:
        """True when the (possibly bounded) valuation is certainly >= bound."""
        return self.value >= bound

    def __str__(self) -> str:
        prefix = "" if self.tag == "exact" else ">="
        return f"{prefix}{self.value}"


@dataclass(frozen=True)
class RVClass:
    """Leading-term data: valuation plus unit digits to depth ceil(lambda*e)."""

    valuation: Fraction
    leading_digits: tuple
    lam: Fraction


# ---------------------------------------------------------------------------
# coefficient-vector helpers (private)
# ---------------------------------------------------------------------------

def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("vp(0) undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _rational_unit(field: FieldDescriptor, num: int, den: int, mod: int) -> tuple[int, int]:
    """(k, u) with num/den = pi^k * u and the unit u reduced modulo mod.

    For num/den = p^w * a/b with a, b prime to p, p^w = pi^(e*w) * c^-w as
    pi^e = c*p, so k = e*w and u = a/b * c^-w.  num and den are nonzero; an
    int (den = 1) inverts nothing.
    """
    p, w = field.p, 0
    while num % p == 0:
        num //= p
        w += 1
    while den % p == 0:
        den //= p
        w -= 1
    unit = num % mod if den == 1 else num * pow(den, -1, mod) % mod
    if w:
        unit = unit * pow(field.eis_unit, -w, mod) % mod
    return field.e * w, unit


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _reduce_vec(field: FieldDescriptor, vec: Sequence[int], rel_prec: int) -> tuple[int, ...]:
    """vec, a full coefficient vector, reduced modulo pi^rel_prec.

    Entry i, at pi-offset i % e, is taken modulo p^ceil((rel_prec - i % e)/e),
    and is 0 when i % e >= rel_prec.
    """
    p, e = field.p, field.e
    if len(vec) == 1:
        return (vec[0] % p ** rel_prec,) if rel_prec > 0 else (0,)
    mods = [p ** max(0, _ceil_div(rel_prec - r, e)) for r in range(e)] * field.f
    return tuple([v % m for v, m in zip(vec, mods)])


def _vec_val(field: FieldDescriptor, vec: Sequence[int]) -> Optional[int]:
    """pi-adic valuation of a canonically reduced vector, None if zero: the
    least e*v_p(vec[i]) + i % e over the nonzero entries."""
    p, e = field.p, field.e
    if len(vec) == 1:
        return _vp(vec[0], p) if vec[0] else None
    return min([e * _vp(a, p) + i % e for i, a in enumerate(vec) if a], default=None)


def _shift_vec(field: FieldDescriptor, vec: Sequence[int], k: int, work: int = 0) -> list[int]:
    """The coefficient vector of pi^k * vec, in one step.

    With q, r = divmod(k, e), entry i is vec[i - r] * (c*p)^(q + (i < r)),
    which holds as r = 0 when e = 1 and f = 1 when e > 1; when pi = p
    (e = c = 1) it is one power of p.
    For k < 0 entries are floor-divided by powers of p, which is exact only
    when vec has pi-adic valuation >= -k, i.e. e*v_p(vec[i]) + i % e >= -k for
    each nonzero entry; negative powers of c are taken modulo p^work, so the
    result is right modulo p^work.
    """
    p, c, e = field.p, field.eis_unit, field.e
    if e == c == 1:
        scale = p ** abs(k)
        return [v * scale for v in vec] if k >= 0 else [v // scale for v in vec]
    q, r = divmod(k, e)
    if q >= 0:
        lo, hi = (c * p) ** q, (c * p) ** (q + 1)
        return [vec[i - r] * (hi if i < r else lo) for i in range(len(vec))]
    mod = p ** work
    lo, hi = (p ** -q, pow(c, q, mod)), (p ** (-q - 1), pow(c, q + 1, mod))
    return [vec[i - r] // d * u for i, (d, u) in enumerate([hi] * r + [lo] * (len(vec) - r))]


def _vec_mul(field: FieldDescriptor, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b reduced modulo F = x^n + sum low[j] x^j, not modulo p."""
    n = field.coeff_len
    if n == 1:
        return [a[0] * b[0]]
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                conv[i + j] += x * y
    low = field.residue_poly[:-1] or (-field.eis_unit * field.p,)
    for idx in range(2 * n - 2, n - 1, -1):
        cval = conv[idx]
        if cval:
            for j, fj in enumerate(low):
                if fj:
                    conv[idx - n + j] -= cval * fj
    return conv[:n]


def _residue_inverse(field: FieldDescriptor, vec: Sequence[int]) -> list[int]:
    """Inverse of the residue of a unit vector in the residue field
    F_p[x]/(G), G = residue_poly mod p, or x when f = 1: the residue is the
    entries at pi-offset 0, all of them when e = 1 and the first when f = 1."""
    p = field.p
    inv = _poly_inverse(vec[::field.e], [c % p for c in field.residue_poly] or [0, 1], p)
    return inv + [0] * (field.coeff_len - len(inv))


def _vec_invert(field: FieldDescriptor, vec: Sequence[int], rel_prec: int) -> tuple[int, ...]:
    """Newton iteration z <- z(2 - u z), doubling correct digits per step."""
    z = _residue_inverse(field, vec)
    two = [2] + [0] * (field.coeff_len - 1)
    correct = 1
    guard = 0
    while correct < rel_prec:
        t = [a - b for a, b in zip(two, _vec_mul(field, vec, z))]
        z = list(_reduce_vec(field, _vec_mul(field, z, t), rel_prec))
        correct *= 2
        guard += 1
        if guard > 64:
            raise InsufficientPrecision("inversion failed to converge")
    return _reduce_vec(field, z, rel_prec)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PadicElement:
    """A field element known modulo pi^abs_prec.

    For a nonzero element ``coeffs`` is the canonically reduced unit part and
    the valuation equals shift/e exactly.  An element whose known digits all
    vanish is stored with empty ``coeffs`` and shift == abs_prec; it stands
    for "zero modulo pi^abs_prec" and its valuation is only bounded below.
    """

    field: FieldDescriptor
    shift: int
    coeffs: tuple[int, ...]
    abs_prec: int

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field: FieldDescriptor, prec: int) -> "PadicElement":
        return PadicElement(field, prec, (), prec)

    @staticmethod
    def from_rational(field: FieldDescriptor, value: Rational, prec: int) -> "PadicElement":
        value = Fraction(value)
        if value == 0:
            return PadicElement.zero(field, prec)
        rel = prec - _rational_unit(field, value.numerator, value.denominator, 1)[0]
        if rel <= 0:
            return PadicElement.zero(field, prec)
        one = PadicElement(field, 0, (1,) + (0,) * (field.coeff_len - 1), rel)
        return one._scale_rational(value)

    @staticmethod
    def one(field: FieldDescriptor, prec: int) -> "PadicElement":
        return PadicElement.from_rational(field, 1, prec)

    @staticmethod
    def from_int(field: FieldDescriptor, value: int, prec: int) -> "PadicElement":
        return PadicElement.from_rational(field, value, prec)

    @staticmethod
    def uniformizer(field: FieldDescriptor, prec: int, power: int = 1) -> "PadicElement":
        base = _make(field, 1, [1] + [0] * (field.coeff_len - 1), prec)
        if power == 1:
            return base
        if base.is_zero:
            return PadicElement.zero(field, prec)
        return base ** power

    @staticmethod
    def from_pi_digits(field: FieldDescriptor, shift: int, digits: Sequence, prec: int) -> "PadicElement":
        """Assemble pi^shift * sum(digits[t] * pi^t) with residue digits."""
        e, cp = field.e, field.eis_unit * field.p
        vec = [0] * field.coeff_len
        for t, d in enumerate(digits):
            for j, x in enumerate((d,) if isinstance(d, int) else d):
                vec[j * e + t % e] += int(x) * cp ** (t // e)
        return _make(field, shift, vec, prec)

    # -- state --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no nonzero digit is known (zero modulo pi^abs_prec)."""
        return not self.coeffs

    @property
    def rel_prec(self) -> int:
        return self.abs_prec - self.shift

    def valuation(self) -> ValuationResult:
        if self.is_zero:
            return ValuationResult("at_least", Fraction(self.abs_prec, self.field.e))
        return ValuationResult("exact", Fraction(self.shift, self.field.e))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "PadicElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        return self._combine(1, other, 1)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicElement(self.field, self.shift,
                            _reduce_vec(self.field, [-c for c in self.coeffs], self.rel_prec),
                            self.abs_prec)

    def __sub__(self, other):
        return self._combine(1, other, -1)

    def __rsub__(self, other):
        return self._combine(-1, other, 1)

    def _combine(self, a: int, other, b: int):
        """a * self + b * other for a, b = 1 or -1, as one two-term
        _sum_terms capped at the common precision, so that neither operand
        is negated or reduced first.  An int other is exact: the raw vector
        (other, 0, ..., 0) at shift 0, and the sum keeps self's abs_prec."""
        if isinstance(other, int):
            prec = self.abs_prec
            vec = (b * other,) + (0,) * (self.field.coeff_len - 1) if other else None
            term = (prec, 0, vec)
        else:
            other = _coerce(self, other)
            if other is NotImplemented:
                return NotImplemented
            self._check_same_field(other)
            prec = min(self.abs_prec, other.abs_prec)
            term = other._term(b)
        return _sum_terms(self.field, (self._term(a), term), prec)

    def _term(self, sign: int) -> tuple:
        """sign * self, for sign = 1 or -1, as a (prec, shift, vec) term."""
        vec = self.coeffs if sign == 1 else [-c for c in self.coeffs]
        return self.abs_prec, self.shift, vec or None

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale_rational(other)
        if not isinstance(other, PadicElement):
            return NotImplemented
        self._check_same_field(other)
        prec, shift, vec = _product_term(self, other)
        return _make(self.field, shift, vec, prec) if vec else PadicElement.zero(self.field, prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _scale_rational(self, value: Rational) -> "PadicElement":
        """Exact multiplication by a rational scalar; relative precision kept.
        An imprecise zero has rel_prec 0, so its unit is taken modulo 1."""
        if value == 0:
            return PadicElement.zero(self.field, self.abs_prec)
        field, rel = self.field, self.rel_prec
        shift, unit = _rational_unit(field, value.numerator, value.denominator,
                                     field.p ** _ceil_div(rel, field.e))
        if self.is_zero:
            return PadicElement.zero(field, self.abs_prec + shift)
        return PadicElement(field, self.shift + shift,
                            _reduce_vec(field, [unit * c for c in self.coeffs], rel),
                            self.abs_prec + shift)

    def invert(self) -> "PadicElement":
        if self.is_zero:
            raise DivisionByImpreciseZero("no known nonzero digit in the divisor")
        vec = _vec_invert(self.field, self.coeffs, self.rel_prec)
        return PadicElement(self.field, -self.shift, vec, self.rel_prec - self.shift)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale_rational(Fraction(other.denominator, other.numerator))
        if not isinstance(other, PadicElement):
            return NotImplemented
        return self.__mul__(other.invert())

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.invert()._scale_rational(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            if self.is_zero:
                return PadicElement.one(self.field, self.abs_prec)
            return PadicElement.one(self.field, self.rel_prec)
        if n < 0:
            return self.invert() ** (-n)
        return _binary_power(self, n)

    # -- precision management -------------------------------------------------

    def truncate(self, prec: int) -> "PadicElement":
        """Forget digits beyond pi^prec."""
        if prec >= self.abs_prec:
            return self
        if self.is_zero or prec <= self.shift:
            return PadicElement.zero(self.field, prec)
        return PadicElement(self.field, self.shift,
                            _reduce_vec(self.field, self.coeffs, prec - self.shift),
                            prec)

    def is_indistinguishable(self, other: "PadicElement") -> bool:
        """True when self - other vanishes at the shared precision."""
        return (self - other).is_zero

    # -- digits and display ----------------------------------------------------

    def pi_digits(self, count: int):
        """First ``count`` pi-adic digits of the unit part.

        Digits are integers in [0, p) for residue degree 1, and tuples of f
        such integers (coordinates on the residue basis) otherwise.
        """
        if self.is_zero:
            raise ZeroElement("imprecise zero has no unit digits")
        if count > self.rel_prec:
            raise InsufficientPrecision(
                f"{count} digits requested, {self.rel_prec} known")
        field = self.field
        p = field.p
        work = _ceil_div(self.rel_prec, field.e) + 1
        vec = self.coeffs
        out = []
        while len(out) < count:
            # one pass reads the next e digits (one digit for e = 1); the
            # floor division in the shift by pi^-e drops exactly those digits
            digits = [v % p for v in vec]
            out += digits if field.f == 1 else [tuple(digits)]
            vec = _shift_vec(field, vec, -field.e, work)
        return out[:count]

    def __str__(self) -> str:
        if self.is_zero:
            return f"O(pi^{self.abs_prec})"
        digits = self.pi_digits(self.rel_prec)
        parts = []
        for t, d in enumerate(digits):
            body = str(d) if isinstance(d, int) else _poly_str(d)
            if body == "0":
                continue
            k = self.shift + t
            coeff = body if isinstance(d, int) else f"({body})"
            if k == 0:
                parts.append(coeff)
            else:
                power = "pi" if k == 1 else f"pi^{k}"
                parts.append(power if body == "1" else f"{coeff}*{power}")
        if not parts:
            parts = ["0"]
        return " + ".join(parts) + f" + O(pi^{self.abs_prec})"

    def __repr__(self) -> str:
        return f"<{self} over {self.field}>"


def _coerce(template: PadicElement, value) -> PadicElement:
    """An exact Fraction operand, built at the template's own abs_prec: a sum
    keeps min(abs_prec), so no digit beyond it could survive.  (An int
    operand never gets here: _combine adds it as a raw vector.)"""
    if isinstance(value, PadicElement):
        return value
    if isinstance(value, Fraction):
        return PadicElement.from_rational(template.field, value, template.abs_prec)
    return NotImplemented


def _binary_power(base, n: int):
    """base ** n for n >= 1 by square-and-multiply; shared with DualElement."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _make(field: FieldDescriptor, shift: int, vec: Sequence[int], prec: int) -> PadicElement:
    """Normalise a raw coefficient vector at the given shift into an element."""
    rel = prec - shift
    if rel <= 0:
        return PadicElement.zero(field, prec)
    reduced = _reduce_vec(field, vec, rel)
    val = _vec_val(field, reduced)
    if val is None or val >= rel:
        return PadicElement.zero(field, prec)
    if val:
        out = _shift_vec(field, reduced, -val, _ceil_div(rel, field.e) + 1)
        reduced = _reduce_vec(field, out, rel - val)
        shift += val
    return PadicElement(field, shift, reduced, prec)


def _sum_terms(field: FieldDescriptor, terms, cap: Optional[int] = None) -> PadicElement:
    """sum of pi^shift * vec over the (prec, shift, vec) terms, with one _make.

    This is the one aligned sum: x + y, x - y, x +- m and m +- x are two-term
    calls capped at the common precision, and exp, log and the Lambert sums
    pass their raw terms.

    A term is exact modulo pi^prec, and vec None marks a zero term, which
    only bounds the precision.  The sum is known to the least term prec and
    cap (None: no cap).  As in a term-by-term sum, a term is added only when
    its shift is below the precision so far, and at the lowest shift so far
    (the sum is rescaled when a lower one comes): terms can be produced one
    at a time and no list of them is kept.  Terms added at or above the
    final precision change no digit the one _make keeps.
    """
    prec, low, acc = cap, None, None
    for term_prec, shift, vec in terms:
        if prec is None or term_prec < prec:
            prec = term_prec
        if vec is None or shift >= prec:
            continue
        if acc is None:
            low, acc = shift, vec
        elif shift >= low:
            acc = [a + b for a, b in zip(acc, _shift_vec(field, vec, shift - low))]
        else:
            acc = [a + b for a, b in zip(_shift_vec(field, acc, low - shift), vec)]
            low = shift
    if acc is None:
        return PadicElement.zero(field, prec)
    return _make(field, low, acc, prec)


def _product_term(c: Union[int, PadicElement], w: PadicElement) -> tuple:
    """c * w as a (prec, shift, vec) term of _sum_terms, vec the raw product.

    As __mul__ and _scale_rational give it, the product of two elements is
    known to min(c.abs_prec + w.shift, w.abs_prec + c.shift), and an int
    c != 0 keeps w's relative precision, to w.abs_prec + e*v_p(c) (c = 0
    gives a zero known to w.abs_prec).
    """
    if isinstance(c, int):
        if not c:
            return w.abs_prec, w.shift, None
        vec = [c * x for x in w.coeffs]
        return w.abs_prec + w.field.e * _vp(c, w.field.p), w.shift, vec or None
    vec = _vec_mul(w.field, c.coeffs, w.coeffs) if c.coeffs and w.coeffs else None
    return min(c.abs_prec + w.shift, w.abs_prec + c.shift), c.shift + w.shift, vec


def _int_combination(pairs, const: int) -> PadicElement:
    """sum k * x over the (k, x) pairs, plus const, with one _make.

    The ks and const are ints and the xs elements of one field.  The sum is
    one _sum_terms of the _product_term(k, x) terms and const as the raw
    vector (const, 0, ..., 0) at shift 0, known to the least term precision:
    the precision and digits that the same expression gets when each k * x,
    sum and int operand is reduced on its own.
    """
    first = pairs[0][1]
    for _, x in pairs:
        first._check_same_field(x)
    terms = [_product_term(k, x) for k, x in pairs]
    cap = min(prec for prec, _, _ in terms)
    if const:
        terms.append((cap, 0, (const,) + (0,) * (first.field.coeff_len - 1)))
    return _sum_terms(first.field, terms, cap)


# ---------------------------------------------------------------------------
# named operation wrappers
# ---------------------------------------------------------------------------

def arithmetic(op: str, a: PadicElement, b: PadicElement) -> PadicElement:
    """Dispatch one of add/sub/mul/div with the documented precision rules."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def invert(a: PadicElement) -> PadicElement:
    return a.invert()


def valuation(a: PadicElement) -> ValuationResult:
    return a.valuation()


def _lambda_digits(lam: Rational, e: int) -> int:
    """lambda * e, the pi-unit form of a scaling lambda >= 0 in (1/e)Z."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    depth, rem = divmod(lam.numerator * e, lam.denominator)
    if rem:
        raise ValueError(f"lambda {lam} is not in the value group (1/{e})Z")
    return depth


def rv_class(a: PadicElement, lam: Rational) -> RVClass:
    """Leading-term class of a at scaling lambda.

    Two elements share a class iff v(x - y) > v(x) + lambda.  lambda must be
    a non-negative element of the value group (1/e)Z.
    """
    count = _lambda_digits(lam, a.field.e) + 1
    if a.is_zero:
        raise ZeroElement("rv undefined on an imprecise zero")
    if count > a.rel_prec:
        raise InsufficientPrecision(
            f"need {count} unit digits, have {a.rel_prec}")
    digits = tuple(a.pi_digits(count))
    return RVClass(valuation=Fraction(a.shift, a.field.e),
                   leading_digits=digits, lam=Fraction(lam))
