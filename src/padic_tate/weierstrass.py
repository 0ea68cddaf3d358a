"""Truncated strictly convergent power series and Weierstrass division.

A StrictSeries is a finite collection of monomials of total degree at most
``degree_cap`` whose coefficients lie in the valuation ring and share one
absolute precision, ``coeff_prec``: no coefficient, a zero one included, is
known to fewer digits.  Each coefficient of a sum, difference, product or
long-division remainder is one field._sum_terms of its raw terms, reduced
once.  Division g = q*f + r by a series f that is regular of
degree d in the active variable runs the contraction

    q_{k+1} = PolyQuot_w(g - q_k * eps),   r_{k+1} = PolyRem_w(g - q_k * eps)

where f = w + eps splits off the monic degree-d polynomial part w.  It
starts at q_1 = PolyQuot_w(g), which is exact when eps = 0, and each pass
improves agreement by at least the Gauss valuation of eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import (
    AmbiguousAtPrecision,
    CoefficientOutsideValuationRing,
    DegreeCapExceeded,
    NotRegular,
)
from .field import (FieldDescriptor, PadicElement, ValuationResult, _ceil_div, _product_term,
                    _sum_terms)

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class StrictSeries:
    nvars: int
    field: FieldDescriptor
    coeffs: Mapping[Exponent, PadicElement]
    degree_cap: int
    coeff_prec: int

    @staticmethod
    def build(nvars: int, field: FieldDescriptor, terms: Mapping[Exponent, PadicElement],
              degree_cap: int, coeff_prec: int) -> "StrictSeries":
        """Validate exponents, restrict to the valuation ring, canonicalise.

        The series is known to the least abs_prec among coeff_prec and the
        coefficients given, zero ones included, and every coefficient is
        truncated to it; below one digit nothing is known, which raises
        AmbiguousAtPrecision.  Division walks every degree up to the cap,
        and the cap arrives from the command line or an input file, so, as
        make_field caps e, it is at most 64.
        """
        if coeff_prec < 1:
            raise ValueError("coefficient precision must be >= 1")
        if degree_cap > 64:
            raise ValueError(f"degree cap {degree_cap} is above 64")
        clean: dict[Exponent, PadicElement] = {}
        for expo, c in terms.items():
            expo = tuple(int(x) for x in expo)
            if len(expo) != nvars or any(x < 0 for x in expo):
                raise ValueError(f"bad exponent tuple {expo}")
            if sum(expo) > degree_cap:
                raise DegreeCapExceeded(f"monomial {expo} exceeds cap {degree_cap}")
            if not c.is_zero and c.shift < 0:
                raise CoefficientOutsideValuationRing(
                    f"coefficient at {expo} has valuation {c.valuation()}")
            if expo in clean:
                raise ValueError(f"duplicate exponent {expo}")
            clean[expo] = c
            coeff_prec = min(coeff_prec, c.abs_prec)
        if coeff_prec < 1:
            raise AmbiguousAtPrecision(f"a coefficient is known to {coeff_prec} pi-digits")
        clean = {e: c.truncate(coeff_prec) for e, c in sorted(clean.items())}
        return StrictSeries(nvars, field, {e: c for e, c in clean.items() if not c.is_zero},
                            degree_cap, coeff_prec)

    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.coeffs), default=0)

    def _compatible(self, other: "StrictSeries") -> tuple[int, int]:
        if self.nvars != other.nvars or self.field != other.field:
            raise ValueError("series mismatch")
        return min(self.degree_cap, other.degree_cap), min(self.coeff_prec, other.coeff_prec)

    def _combine(self, other: "StrictSeries", sign: int) -> "StrictSeries":
        """self + sign * other, for sign = 1 or -1."""
        cap, prec = self._compatible(other)
        pairs = [(e, c._term(1)) for e, c in self.coeffs.items()]
        pairs += [(e, c._term(sign)) for e, c in other.coeffs.items()]
        return StrictSeries.build(self.nvars, self.field,
                                  _sum_by_monomial(self.field, pairs, prec), cap, prec)

    def __add__(self, other: "StrictSeries") -> "StrictSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "StrictSeries") -> "StrictSeries":
        return self._combine(other, -1)

    def __mul__(self, other: "StrictSeries") -> "StrictSeries":
        cap, prec = self._compatible(other)
        acc = _sum_by_monomial(self.field, (
            (tuple(a + b for a, b in zip(e1, e2)), _product_term(1, c1, c2))
            for e1, c1 in self.coeffs.items() for e2, c2 in other.coeffs.items()), prec)
        for expo, c in acc.items():
            if sum(expo) > cap and not c.is_zero:
                raise DegreeCapExceeded(
                    f"product monomial {expo} exceeds cap {cap}; raise the cap")
        acc = {e: c for e, c in acc.items() if sum(e) <= cap}
        return StrictSeries.build(self.nvars, self.field, acc, cap, prec)

    def is_indistinguishable(self, other: "StrictSeries") -> bool:
        return (self - other).is_zero

    def __str__(self) -> str:
        if self.is_zero:
            return f"0 + O(pi^{self.coeff_prec})"
        bits = []
        for expo, c in self.coeffs.items():
            mono = "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                            for i, k in enumerate(expo) if k)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _sum_by_monomial(field: FieldDescriptor, pairs: Iterable[tuple[Exponent, tuple]],
                     prec: int) -> dict[Exponent, PadicElement]:
    """One _sum_terms, capped at prec, of each monomial's (prec, shift, vec)
    terms among the (monomial, term) pairs."""
    groups: dict[Exponent, list[tuple]] = {}
    for expo, term in pairs:
        groups.setdefault(expo, []).append(term)
    return {e: _sum_terms(field, terms, prec) for e, terms in groups.items()}


def _gauss_shift(f: StrictSeries) -> int:
    """The Gauss valuation in pi-units: the least coefficient shift, or the
    bound coeff_prec when f vanishes mod pi^coeff_prec."""
    return min((c.shift for c in f.coeffs.values()), default=f.coeff_prec)


def gauss_valuation(f: StrictSeries) -> ValuationResult:
    """Minimum coefficient valuation; a lower bound when f vanishes mod pi^N."""
    return ValuationResult("at_least" if f.is_zero else "exact",
                           Fraction(_gauss_shift(f), f.field.e))


def _split_regular(f: StrictSeries, active: int):
    """Return (d, w, eps) with f = w + eps, w the monic degree-d part in the
    active variable with constant companion coefficients, and eps of strictly
    positive Gauss valuation; None when no such d exists."""
    if not 0 <= active < f.nvars:
        raise ValueError("active variable out of range")
    pure: dict[int, PadicElement] = {}
    mixed_unit = False
    for expo, c in f.coeffs.items():
        if all(k == 0 for i, k in enumerate(expo) if i != active):
            pure[expo[active]] = c
        elif c.shift == 0:
            mixed_unit = True
    if mixed_unit:
        return None
    # d: the largest pure power with a unit coefficient
    d = max((j for j, c in pure.items() if c.shift == 0), default=None)
    if d is None:
        return None
    # the leading coefficient must be 1 up to positive valuation
    one = PadicElement.one(f.field, f.coeff_prec)
    delta = pure[d] - one
    if not delta.is_zero and delta.shift == 0:
        return None
    w_terms = {tuple(j if i == active else 0 for i in range(f.nvars)): c if j < d else one
               for j, c in pure.items() if j <= d}
    w = StrictSeries.build(f.nvars, f.field, w_terms, f.degree_cap, f.coeff_prec)
    eps = f - w
    if not eps.is_zero and _gauss_shift(eps) <= 0:
        return None
    return d, w, eps


def regular_degree(f: StrictSeries, active: int) -> Optional[int]:
    """The degree d making f monic-plus-small in the active variable, if any."""
    split = _split_regular(f, active)
    return None if split is None else split[0]


def _poly_divmod(g: StrictSeries, w: StrictSeries, active: int, d: int):
    """Long division by the monic degree-d polynomial w in the active variable.

    q and r are known to the lesser precision of g and w.  The remainder
    keeps the raw terms of each monomial, reduced once: when its layer is
    divided, or at the end below degree d.  Dividing c * x^e subtracts
    c * x^(e - d) * w; its leading monomial cancels c exactly, so only w's
    lower part, negated once, is multiplied out."""
    field, nvars = g.field, g.nvars
    prec = min(g.coeff_prec, w.coeff_prec)
    rem = {e: [c._term(1)] for e, c in g.coeffs.items()}
    lower = [(e, -c) for e, c in w.coeffs.items() if e[active] < d]
    quot: dict[Exponent, PadicElement] = {}
    for j in range(g.degree_in(active), d - 1, -1):
        for expo in [e for e in rem if e[active] == j]:
            c = _sum_terms(field, rem.pop(expo), prec)
            if c.is_zero:
                continue
            qexp = tuple(k - d if i == active else k for i, k in enumerate(expo))
            quot[qexp] = c
            for wexp, wc in lower:
                target = tuple(a + b for a, b in zip(qexp, wexp))
                rem.setdefault(target, []).append(_product_term(1, wc, c))
    remainder = {e: _sum_terms(field, terms, prec) for e, terms in rem.items()}
    q_series = StrictSeries.build(nvars, field, quot, g.degree_cap, prec)
    r_series = StrictSeries.build(nvars, field, remainder, g.degree_cap, prec)
    return q_series, r_series


def weierstrass_divide(g: StrictSeries, f: StrictSeries, active: int):
    """Unique (q, r) with g = q*f + r mod pi^N and deg_active(r) <= d-1."""
    _, prec = g._compatible(f)
    split = _split_regular(f, active)
    if split is None:
        raise NotRegular("f is not regular in the active variable at this precision")
    d, w, eps = split
    q, r = _poly_divmod(g, w, active, d)
    if eps.is_zero:
        return q, r
    gamma = _gauss_shift(eps)
    assert gamma > 0
    for k in range(1, _ceil_div(prec, gamma) + 1):
        q_next, r = _poly_divmod(g - q * eps, w, active, d)
        gap = q_next - q
        floor = min(prec, k * gamma)
        if _gauss_shift(gap) < floor:
            raise AssertionError(f"contraction too slow: {gauss_valuation(gap)} "
                                 f"after {k} passes (need {floor} pi-digits)")
        if gap.is_zero:
            return q_next, r
        q = q_next
    return q, r


def weierstrass_prepare(f: StrictSeries, active: int):
    """Preparation as a corollary of division: returns (q, dist) with
    q*f = dist, q a unit series and dist monic of degree d in the active
    variable (dist = x_active^d - r for the division of x_active^d by f)."""
    split = _split_regular(f, active)
    if split is None:
        raise NotRegular("f is not regular in the active variable at this precision")
    d = split[0]
    top = tuple(d if i == active else 0 for i in range(f.nvars))
    xd = StrictSeries.build(f.nvars, f.field,
                            {top: PadicElement.one(f.field, f.coeff_prec)},
                            f.degree_cap, f.coeff_prec)
    q, r = weierstrass_divide(xd, f, active)
    return q, xd - r
