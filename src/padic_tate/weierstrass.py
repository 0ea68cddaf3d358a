"""Truncated strictly convergent power series and Weierstrass division.

A StrictSeries is a finite collection of monomials of total degree at most
``degree_cap`` whose coefficients lie in the valuation ring and share one
absolute precision.  Division g = q*f + r by a series f that is regular of
degree d in the active variable runs the contraction

    q_{k+1} = PolyQuot_w(g - q_k * eps),   r_{k+1} = PolyRem_w(g - q_k * eps)

where f = w + eps splits off the monic degree-d polynomial part w; each pass
improves agreement by at least the Gauss valuation of eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import (
    AmbiguousAtPrecision,
    CoefficientOutsideValuationRing,
    DegreeCapExceeded,
    NotRegular,
)
from .field import FieldDescriptor, PadicElement, ValuationResult

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

        Division walks every degree up to the cap, and the cap arrives from
        the command line or an input file, so, as make_field caps e, it is
        at most 64.
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
            c = c.truncate(coeff_prec)
            if c.is_zero:
                continue
            if c.shift < 0:
                raise CoefficientOutsideValuationRing(
                    f"coefficient at {expo} has valuation {c.valuation()}")
            if expo in clean:
                raise ValueError(f"duplicate exponent {expo}")
            clean[expo] = c
        return StrictSeries(nvars, field, dict(sorted(clean.items())), degree_cap, coeff_prec)

    @staticmethod
    def zero(nvars: int, field: FieldDescriptor, degree_cap: int, coeff_prec: int) -> "StrictSeries":
        return StrictSeries(nvars, field, {}, degree_cap, coeff_prec)

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

    def __add__(self, other: "StrictSeries") -> "StrictSeries":
        cap, prec = self._compatible(other)
        out: dict[Exponent, PadicElement] = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            out[expo] = out[expo] + c if expo in out else c
        return StrictSeries.build(self.nvars, self.field, out, cap, prec)

    def __sub__(self, other: "StrictSeries") -> "StrictSeries":
        return self + other.scale(-1)

    def scale(self, scalar) -> "StrictSeries":
        out = {e: c * scalar for e, c in self.coeffs.items()}
        return StrictSeries.build(self.nvars, self.field, out, self.degree_cap, self.coeff_prec)

    def __mul__(self, other: "StrictSeries") -> "StrictSeries":
        cap, prec = self._compatible(other)
        acc: dict[Exponent, PadicElement] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc[expo] = acc[expo] + prod if expo in acc else prod
        for expo, c in acc.items():
            if sum(expo) > cap and not c.truncate(prec).is_zero:
                raise DegreeCapExceeded(
                    f"product monomial {expo} exceeds cap {cap}; raise the cap")
        acc = {e: c for e, c in acc.items() if sum(e) <= cap}
        return StrictSeries.build(self.nvars, self.field, acc, cap, prec)

    def coefficient(self, expo: Exponent) -> PadicElement:
        return self.coeffs.get(tuple(expo), PadicElement.zero(self.field, self.coeff_prec))

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
    # candidate d: the largest pure power with a unit coefficient
    d = None
    for j in sorted(pure, reverse=True):
        c = pure[j]
        if c.is_zero:
            if c.abs_prec < 1:
                raise AmbiguousAtPrecision(f"pure power {j} undecidable")
            continue
        if c.shift == 0:
            d = j
            break
    if d is None:
        return None
    lead = pure[d]
    # the leading coefficient must be 1 up to positive valuation
    one = PadicElement.one(f.field, f.coeff_prec)
    delta = lead - one
    if not delta.is_zero and delta.shift == 0:
        return None
    unit = tuple(0 for _ in range(f.nvars))
    w_terms: dict[Exponent, PadicElement] = {}
    for j, c in pure.items():
        if j > d or c.is_zero:
            continue
        expo = tuple(j if i == active else 0 for i in range(f.nvars))
        w_terms[expo] = c if j != d else one
    top = tuple(d if i == active else 0 for i in range(f.nvars))
    w_terms[top] = one
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
    """Long division by the monic degree-d polynomial w in the active variable."""
    field, nvars = g.field, g.nvars
    rem: dict[Exponent, PadicElement] = dict(g.coeffs)
    quot: dict[Exponent, PadicElement] = {}

    def add_term(target: dict, expo: Exponent, val: PadicElement):
        target[expo] = target[expo] + val if expo in target else val

    for j in range(g.degree_in(active), d - 1, -1):
        layer = [(e, c) for e, c in rem.items() if e[active] == j and not c.is_zero]
        for expo, c in layer:
            qexp = tuple(k - d if i == active else k for i, k in enumerate(expo))
            add_term(quot, qexp, c)
            for wexp, wc in w.coeffs.items():
                target = tuple(a + b for a, b in zip(qexp, wexp))
                add_term(rem, target, -(wc * c))
        rem = {e: c for e, c in rem.items() if not c.is_zero}
    q_series = StrictSeries.build(nvars, field, quot, g.degree_cap, g.coeff_prec)
    r_series = StrictSeries.build(nvars, field, rem, g.degree_cap, g.coeff_prec)
    return q_series, r_series


def weierstrass_divide(g: StrictSeries, f: StrictSeries, active: int,
                       initial: Optional[StrictSeries] = None):
    """Unique (q, r) with g = q*f + r mod pi^N and deg_active(r) <= d-1."""
    cap, prec = g._compatible(f)
    split = _split_regular(f, active)
    if split is None:
        raise NotRegular("f is not regular in the active variable at this precision")
    d, w, eps = split
    if eps.is_zero:
        return _poly_divmod(g, w, active, d)
    gamma = _gauss_shift(eps)
    assert gamma > 0
    iterations = -(-prec // gamma) + 1
    q = initial if initial is not None else StrictSeries.zero(g.nvars, g.field, cap, prec)
    for k in range(iterations):
        q_next, r = _poly_divmod(g - q * eps, w, active, d)
        if k:
            gap = q_next - q
            floor = min(prec, k * gamma)
            if _gauss_shift(gap) < floor:
                raise AssertionError(f"contraction too slow: {gauss_valuation(gap)} "
                                     f"after {k} passes (need {floor} pi-digits)")
            if q_next.is_indistinguishable(q):
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
