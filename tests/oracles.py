"""Reference computations for differential tests.

Most work in plain Fractions / integers, independent of the library paths,
and are reduced into the p-adic representation only at the final comparison
step.  The others keep a library algorithm that a faster or simpler one
replaced: the brute-force rotundity check, the relation search that walks
the whole height box, the multiplicative dependence search that confirmed
each candidate with a chain of products, the Smith normal form that kept U
and V as two more matrices beside the reduced one, the term-by-term
Lambert, exp and log sums, the separate kernels for x +- y, x +- m and the
unit of 1/n that field._sum_terms and field._rational_unit replaced, the
separate exp and log term generators, one term at a time by the recurrence
term n = term n-1 * t * num(n)/n, that rectangular splitting replaced, the Tate
coefficients built one reduced operation at a time, the Tate series point
summed over those coefficients,
the coefficient kernels written once per field kind, Delta from Euler's
pentagonal series rather than from a4 and a6, and the series sums,
products and long division that added coefficients one PadicElement
operation at a time.  solve_division is the exact-rational Weierstrass
division that the harness's oracle check ran before it compared with the
planted (q, r), and weierstrass_divide_from_zero the division whose
contraction started at q_0 = 0.  row_reduce_sparse, the elimination over Q
under solve_division, was also the harness's snf/200 rank oracle until
lattice.rank took its place.  parse_element_budgeted is the literal
parser that evaluated every atom at a guessed working precision.  The Tate
group law, its on-curve check, the ODE and X' residuals and Delta are kept
as the chains of PadicElement operators they were before each became one
sum of monomials.
"""

import functools
import itertools
import re
from fractions import Fraction
from typing import Optional, Sequence

from padic_tate import lattice
from padic_tate.dual import DualElement
from padic_tate.errors import (
    DegreeCapExceeded,
    DenominatorNotInvertible,
    DomainError,
    ImpreciseValuation,
    InsufficientPrecision,
    NotRegular,
    PrecisionCollapse,
    OffCurveInput,
    OnKernel,
    OutsideConvergenceDomain,
    ParseError,
    SearchSpaceTooLarge,
    ZeroElement,
)
from padic_tate.field import (
    DEFAULT_SLACK,
    FieldDescriptor,
    PadicElement,
    _make,
    _poly_inverse,
    _rational_unit,
    _shift_vec,
    _vec_mul,
    _vp,
)
from padic_tate.lattice import (
    Matrix,
    RotundVerdict,
    _height_box,
    _normalized_rows,
    _primitive_signed,
    dim_image,
    identity,
    rank,
    shape,
)
from padic_tate.series import _exp_truncation
from padic_tate.tate import TatePoint, tate_xy_with_derivative
from padic_tate.weierstrass import (
    Exponent,
    StrictSeries,
    _gauss_shift,
    _poly_divmod,
    _split_regular,
    gauss_valuation,
)


def vp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def log_last_term(shift: int, e: int, p: int, target: int) -> int:
    """The last n, or 1, whose log term t^n/n has shift n*shift - e*v_p(n)
    below target, for v(t) = shift/e on the ball shift*(p-1) > e.  Every n is
    tried up to target*(p-1)/(shift*(p-1) - e): past it, v_p(n) <= (n-1)/(p-1)
    puts n*shift - e*v_p(n) at or above target."""
    stop = target * (p - 1) // (shift * (p - 1) - e) + 1
    return max((n for n in range(1, stop) if n * shift - e * vp_int(n, p) < target),
               default=1)


def from_fraction(field, value: Fraction, prec: int) -> PadicElement:
    """Independent constructor: digits peeled off with integer arithmetic."""
    value = Fraction(value)
    if value == 0:
        return PadicElement.zero(field, prec)
    assert field.kind == "base", "oracle constructor only covers the base field"
    p = field.p
    num, den = value.numerator, value.denominator
    shift = vp_int(num, p) - vp_int(den, p)
    num //= p ** vp_int(num, p)
    den //= p ** vp_int(den, p)
    digits = []
    work = num % p ** (prec - shift) * pow(den, -1, p ** max(1, prec - shift))
    work %= p ** max(1, prec - shift)
    for _ in range(max(0, prec - shift)):
        digits.append(work % p)
        work //= p
    return PadicElement.from_pi_digits(field, shift, digits, prec)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _moduli(field, rel_prec: int) -> list[int]:
    """p-power exponents bounding each stored coefficient of a unit part
    known modulo pi^rel_prec."""
    if field.kind == "eisenstein":
        return [max(0, _ceil_div(rel_prec - i, field.e)) for i in range(field.e)]
    return [max(0, rel_prec)] * field.f


# The separate align-and-reduce kernels, kept verbatim as functions of self:
# PadicElement._combine (an int other through _add_int), PadicElement._add_int
# (which also served m - x as _add_int(m, -1)) and series._inverse_unit.

def _combine(self, other, sign: int):
    """self + sign * other for sign = 1 or -1, in one pass: both operands
    are aligned at the lower shift and reduced by one _make, so a
    difference never negates other first."""
    if isinstance(other, int):
        return self if other == 0 else _add_int(self, sign * other, 1)
    if isinstance(other, Fraction):
        other = PadicElement.from_rational(self.field, other, self.abs_prec)
    elif not isinstance(other, PadicElement):
        return NotImplemented
    self._check_same_field(other)
    prec = min(self.abs_prec, other.abs_prec)
    if other.is_zero or other.shift >= prec:
        return self.truncate(prec)
    if self.is_zero or self.shift >= prec:
        return _make(self.field, other.shift, [sign * c for c in other.coeffs], prec)
    low = min(self.shift, other.shift)
    a = _shift_vec(self.field, self.coeffs, self.shift - low)
    b = _shift_vec(self.field, other.coeffs, other.shift - low)
    return _make(self.field, low, [x + sign * y for x, y in zip(a, b)], prec)


def _add_int(self, m: int, sign: int) -> PadicElement:
    """sign * self + m for sign = 1 or -1, at self's abs_prec, with one
    _make: m is the raw vector (m, 0, ..., 0) at shift 0, aligned with
    self without a reduction of its own."""
    field = self.field
    low = min(self.shift, 0)
    b = _shift_vec(field, (m,) + (0,) * (field.coeff_len - 1), -low)
    if self.is_zero:
        return _make(field, low, b, self.abs_prec)
    a = _shift_vec(field, self.coeffs, self.shift - low)
    return _make(field, low, [sign * x + y for x, y in zip(a, b)], self.abs_prec)


def _inverse_unit(field, n: int, mod: int) -> tuple[int, int]:
    """(e*v_p(n), u) with 1/n = pi^(-e*v_p(n)) * u and u reduced modulo mod.

    For n = p^v * n_u, 1/n = p^-v / n_u and p^-v = pi^(-e*v) * c^v when
    pi^e = c*p (c = 1 unless eisenstein), so u = c^v / n_u.
    """
    p, v = field.p, 0
    while n % p == 0:
        n //= p
        v += 1
    unit = pow(n, -1, mod)
    if v and field.kind == "eisenstein":
        unit = unit * pow(field.eis_unit, v, mod) % mod
    return field.e * v, unit


# The coefficient kernels as they were when each field kind had its own
# branch, kept verbatim (renamed kind_*, pi_digits and from_pi_digits as
# functions) as the reference for the one kernel set that reads only
# (p, e, f, c, F).

def kind_reduce_vec(field: FieldDescriptor, vec: Sequence[int], rel_prec: int) -> tuple[int, ...]:
    """vec, a full coefficient vector, reduced modulo pi^rel_prec.

    Eisenstein entry i (the coefficient of pi^i) is taken modulo
    p^ceil((rel_prec - i)/e), and is 0 when i >= rel_prec.
    """
    p = field.p
    if field.kind == "base":
        return (vec[0] % p ** rel_prec,) if rel_prec > 0 else (0,)
    if field.kind == "eisenstein":
        e = field.e
        return tuple(v % p ** -((i - rel_prec) // e) if i < rel_prec else 0
                     for i, v in enumerate(vec))
    if rel_prec <= 0:
        return (0,) * len(vec)
    mod = p ** rel_prec
    return tuple(v % mod for v in vec)


def kind_vec_val(field: FieldDescriptor, vec: Sequence[int]) -> Optional[int]:
    """pi-adic valuation of a canonically reduced vector, None if zero."""
    p = field.p
    if field.kind == "base":
        return _vp(vec[0], p) if vec[0] else None
    best: Optional[int] = None
    if field.kind == "eisenstein":
        for i, a in enumerate(vec):
            if a:
                cand = field.e * _vp(a, p) + i
                if best is None or cand < best:
                    best = cand
    else:
        for b in vec:
            if b:
                cand = _vp(b, p)
                if best is None or cand < best:
                    best = cand
    return best


def kind_shift_vec(field: FieldDescriptor, vec: Sequence[int], k: int, work: int = 0) -> list[int]:
    """The coefficient vector of pi^k * vec, in one step.

    With q, r = divmod(k, e), eisenstein entry i is vec[i - r] * (c*p)^(q + (i < r)).
    For k < 0 entries are floor-divided by powers of p, which is exact only
    when vec has pi-adic valuation >= -k, i.e. e*v_p(vec[i]) + i >= -k for
    each nonzero entry; negative powers of c are taken modulo p^work, so the
    result is right modulo p^work.
    """
    p = field.p
    if field.kind != "eisenstein":
        scale = p ** abs(k)
        return [v * scale for v in vec] if k >= 0 else [v // scale for v in vec]
    c, e = field.eis_unit, field.e
    q, r = divmod(k, e)
    if q >= 0:
        lo, hi = (c * p) ** q, (c * p) ** (q + 1)
        return [vec[i - r] * (hi if i < r else lo) for i in range(e)]
    mod = p ** work
    lo, hi = (p ** -q, pow(c, q, mod)), (p ** (-q - 1), pow(c, q + 1, mod))
    return [vec[i - r] // d * u for i, (d, u) in enumerate([hi] * r + [lo] * (e - r))]


def kind_vec_mul(field: FieldDescriptor, a: Sequence[int], b: Sequence[int]) -> list[int]:
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
    if field.kind == "eisenstein":
        cp = field.eis_unit * field.p
        for idx in range(2 * n - 2, n - 1, -1):
            if conv[idx]:
                conv[idx - n] += conv[idx] * cp
                conv[idx] = 0
        return conv[:n]
    # unramified: reduce by the monic defining polynomial
    poly = field.residue_poly
    for idx in range(2 * n - 2, n - 1, -1):
        cval = conv[idx]
        if cval == 0:
            continue
        conv[idx] = 0
        for j in range(n):
            conv[idx - n + j] -= cval * poly[j]
    return conv[:n]


def kind_residue_inverse(field: FieldDescriptor, vec: Sequence[int]) -> list[int]:
    """Inverse of the residue of a unit vector in the residue field."""
    p = field.p
    if field.kind != "unramified":
        a0 = vec[0] % p
        return [pow(a0, -1, p)] + [0] * (field.coeff_len - 1)
    inv = _poly_inverse(vec, [c % p for c in field.residue_poly], p)
    return inv + [0] * (field.f - len(inv))


def kind_from_pi_digits(field: FieldDescriptor, shift: int, digits: Sequence, prec: int) -> "PadicElement":
    """Assemble pi^shift * sum(digits[t] * pi^t) with residue digits."""
    p = field.p
    n = field.coeff_len
    vec = [0] * n
    if field.kind == "eisenstein":
        cp = field.eis_unit * field.p
        for t, d in enumerate(digits):
            vec[t % field.e] += int(d) * cp ** (t // field.e)
    else:
        for t, d in enumerate(digits):
            tup = (d,) if isinstance(d, int) else tuple(d)
            for j, c in enumerate(tup):
                vec[j] += int(c) * p ** t
    return _make(field, shift, vec, prec)


def kind_pi_digits(self, count: int):
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
        if field.kind == "eisenstein":
            out += digits
        else:
            out.append(digits[0] if field.f == 1 else tuple(digits))
        vec = kind_shift_vec(field, vec, -field.e, work)
    return out[:count]


# The Tate-series coefficients as they were before one _sum_terms fused
# them, kept verbatim: the coefficients of X and Y as functions of the lists
# of u^m and u^-m, which series_point_stepwise evaluates on a plain u or, for
# X', on the dual seed u + eps (the reference for
# tate.tate_xy_with_derivative, which sums no Lambert series).

def x_coefficient_stepwise(upow, unegpow, m):
    return (upow[m] + unegpow[m] - 2) * m


def y_coefficient_stepwise(upow, unegpow, m):
    return upow[m] * ((m - 1) * m // 2) - unegpow[m] * (m * (m + 1) // 2) + m


def exp_partial_sum(x: Fraction, terms: int) -> Fraction:
    acc = Fraction(0)
    fact = 1
    for n in range(terms + 1):
        if n:
            fact *= n
        acc += Fraction(x) ** n / fact
    return acc


def log_partial_sum(t: Fraction, terms: int) -> Fraction:
    acc = Fraction(0)
    for n in range(1, terms + 1):
        acc += Fraction((-1) ** (n + 1), n) * Fraction(t) ** n
    return acc


def s_k_partial_sum(q: Fraction, k: int, terms: int) -> Fraction:
    return sum(Fraction(n ** k) * Fraction(q) ** n / (1 - Fraction(q) ** n)
               for n in range(1, terms + 1))


def tate_xy(q: Fraction, u: Fraction, dmax: int) -> tuple[Fraction, Fraction]:
    q, u = Fraction(q), Fraction(u)
    X = u / (1 - u) ** 2
    Y = u * u / (1 - u) ** 3
    for d in range(1, dmax + 1):
        x_inner = Fraction(0)
        y_inner = Fraction(0)
        for m in range(1, d + 1):
            if d % m:
                continue
            um = u ** m
            uim = u ** (-m)
            x_inner += m * (um + uim - 2)
            y_inner += Fraction((m - 1) * m, 2) * um - Fraction(m * (m + 1), 2) * uim + m
        X += x_inner * q ** d
        Y += y_inner * q ** d
    return X, Y


def lambert_stepwise(q: PadicElement, weights: list, coeff, terms: int, target: int):
    """A Lambert sum term by term: one __mul__ and one __add__ per term,
    each reduced, from a zero known to pi^target, over the weights
    q^m / (1 - q^m), extended in place to ``terms`` entries, each by one
    inversion of 1 - q^m against a one known to pi^(target + v(q))."""
    start = len(weights)
    if terms > start:
        one = PadicElement.one(q.field, target + q.shift)
        qm = one
        tail = []
        for m in range(1, terms + 1):
            qm = qm * q
            if m > start:
                tail.append(qm / (one - qm))
        weights[start:terms] = tail
    acc = PadicElement.zero(q.field, target)
    for m in range(1, terms + 1):
        acc = coeff(m) * weights[m - 1] + acc
    return acc


@functools.lru_cache(maxsize=64)
def _point_weights(q: PadicElement) -> list:
    """The Lambert weights that series_point_stepwise has built at q, kept
    between its calls at the same q and extended by lambert_stepwise."""
    return []


def _value_part(x):
    return x.value if isinstance(x, DualElement) else x


def series_point_stepwise(curve, u, slack: int):
    """tate.tate_series_point as it was when each coefficient of X and Y was
    one reduced element: the same checks, the same powers of u, and X and Y
    by x_coefficient_stepwise, y_coefficient_stepwise and lambert_stepwise."""
    q = curve.q
    sq = q.shift
    uval = _value_part(u)
    if uval.is_zero:
        raise ImpreciseValuation("u has no exact valuation")
    su = uval.shift
    if not 0 <= su < sq:
        raise DomainError("u must be reduced to the fundamental domain first")
    target = curve.q.abs_prec
    one_minus_u = -(u - 1)
    omu_val = _value_part(one_minus_u)
    if omu_val.is_zero:
        raise OnKernel("u is indistinguishable from 1 at this precision")
    if 3 * omu_val.shift > target - slack:
        raise InsufficientPrecision("principal part exhausts the budget")
    inv_omu = one_minus_u.invert()
    dmax = -(-target // (sq - su))
    u_inv = u.invert()
    upow = [None, u]
    unegpow = [None, u_inv]
    for m in range(2, dmax + 1):
        upow.append(upow[-1] * u)
        unegpow.append(unegpow[-1] * u_inv)
    weights = _point_weights(q)
    x = lambert_stepwise(q, weights, lambda m: x_coefficient_stepwise(upow, unegpow, m),
                         dmax, target)
    y = lambert_stepwise(q, weights, lambda m: y_coefficient_stepwise(upow, unegpow, m),
                         dmax, target)
    return u * inv_omu * inv_omu + x, u * u * inv_omu * inv_omu * inv_omu + y


def xy_with_derivative_stepwise(curve, u: PadicElement, slack: int):
    """(X, Y, X') at u from series_point_stepwise on the dual seed u + eps."""
    x, y = series_point_stepwise(curve, DualElement.seed(u), slack)
    return x.value, y.value, x.deriv


def exp_stepwise(x):
    """series.p_exp term by term: one __mul__, one scaling by 1/n and one
    __add__ per term, each reduced."""
    field = x.field
    p, e = field.p, field.e
    target = x.abs_prec
    # v = shift/e > 1/(p-1), tested as shift*(p-1) > e
    if x.is_zero:
        if x.abs_prec * (p - 1) > e:
            return PadicElement.one(field, x.abs_prec)
        raise OutsideConvergenceDomain(
            "argument is an imprecise zero whose bound does not clear 1/(p-1)")
    if x.shift * (p - 1) <= e:
        raise OutsideConvergenceDomain(
            f"v(x) = {Fraction(x.shift, e)} is not > 1/(p-1) = {Fraction(1, p - 1)}")
    T = _exp_truncation(x.shift, e, p, target)
    acc = term = PadicElement.one(field, target)
    for n in range(1, T + 1):
        term = term * x * Fraction(1, n)
        acc = acc + term
    return acc.truncate(target)


def log_stepwise(y, terms=None):
    """series.p_log term by term: power = power * t, then one scaling by
    (-1)^(n+1)/n and one __add__ per term, each reduced.  The sum runs to
    `terms` terms, by default to the last below the precision (log_last_term)."""
    field = y.field
    p, e = field.p, field.e
    t = y - 1
    target = t.abs_prec
    if t.is_zero:
        if t.abs_prec * (p - 1) > e:
            return PadicElement.zero(field, t.abs_prec)
        raise OutsideConvergenceDomain(
            "y - 1 is an imprecise zero whose bound does not clear 1/(p-1)")
    if t.shift * (p - 1) <= e:
        raise OutsideConvergenceDomain(
            f"v(y-1) = {Fraction(t.shift, e)} is not > 1/(p-1) = {Fraction(1, p - 1)}")
    T = terms or log_last_term(t.shift, e, p, target)
    acc = t
    power = t
    for n in range(2, T + 1):
        power = power * t
        acc = acc + power * Fraction((-1) ** (n + 1), n)
    return acc.truncate(target)


def exp_terms(x: PadicElement, T: int):
    """The (prec, shift, vec) terms of 1 + sum_{n<=T} x^n/n!.  As in the
    loop term = term * x * (1/n), term n is term n-1 times x's unit and
    1/n's unit, and keeps the relative precision min(target, x.rel_prec)."""
    field, target = x.field, x.abs_prec
    rel = min(target, x.rel_prec)
    mod = field.p ** (_ceil_div(rel, field.e) + 1)
    vec, shift = (1,) + (0,) * (field.coeff_len - 1), 0
    yield target, shift, vec
    for n in range(1, T + 1):
        k, unit = _rational_unit(field, 1, n, mod)
        vec = [a * unit % mod for a in _vec_mul(field, vec, x.coeffs)]
        shift += x.shift + k
        yield shift + rel, shift, vec


def log_terms(t: PadicElement, T: int):
    """The (prec, shift, vec) terms of sum_{n<=T} (-1)^(n+1) t^n/n.  As in
    the loop power = power * t; acc = acc + power * (+-1/n), the sign and
    1/n scale each term apart from the running power, and every term keeps
    t's relative precision."""
    field, rel = t.field, t.rel_prec
    mod = field.p ** (_ceil_div(rel, field.e) + 1)
    power = t.coeffs
    yield t.abs_prec, t.shift, power
    for n in range(2, T + 1):
        k, unit = _rational_unit(field, (-1) ** (n + 1), n, mod)
        power = [a % mod for a in _vec_mul(field, power, t.coeffs)]
        shift = n * t.shift + k
        yield shift + rel, shift, [a * unit % mod for a in power]


def discriminant_pentagonal(q: PadicElement) -> PadicElement:
    """Delta = q prod_{n>=1} (1 - q^n)^24, with the product summed by Euler's
    pentagonal series sum_{k in Z} (-1)^k q^(k(3k-1)/2) as PadicElement
    operations, over the exponents g with g v(q) < N = abs_prec(q): the
    others lie at or past pi^N, and the sum is known to N.  No divisor sum
    and neither a4 nor a6 enters it."""
    N = q.abs_prec
    euler = PadicElement.one(q.field, N)
    for k in itertools.count(1):
        exponents = [g for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g * q.shift < N]
        if not exponents:
            return q * euler ** 24
        for g in exponents:
            euler = euler + q ** g * (-1) ** k


# The Tate group law and its checks as they were before each expression
# became one field._sum_terms of its monomials, kept verbatim as the
# reference for tate._equation_residual, curve_add, _ode_residual (the
# residual verify_ode takes the valuation of), _relation_residual and
# curve_discriminant.

def equation_residual_chained(curve, point: TatePoint) -> PadicElement:
    if point.is_identity:
        raise ValueError("identity point has no affine residual")
    x, y = point.x, point.y
    return y * y + x * y - x * x * x - curve.a4 * x - curve.a6


def _assert_on_curve_chained(curve, point: TatePoint, slack: int) -> None:
    res = equation_residual_chained(curve, point)
    if not res.is_zero and res.shift < max(0, point.prec - slack):
        raise OffCurveInput(f"curve equation residual has valuation {res.valuation()}")


def curve_add_chained(curve, P: TatePoint, Q: TatePoint,
                      slack: int = DEFAULT_SLACK) -> TatePoint:
    """Chord-tangent law for y^2 + xy = x^3 + a4 x + a6 (a1 = 1, a2 = a3 = 0)."""
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    _assert_on_curve_chained(curve, P, slack)
    _assert_on_curve_chained(curve, Q, slack)
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    dx = x2 - x1
    if not dx.is_zero:
        lam = (y2 - y1) / dx
    else:
        if (y2 + y1 + x1).is_zero:
            return TatePoint.identity()
        if not (y2 - y1).is_zero:
            raise PrecisionCollapse(
                "x-coordinates agree to precision but y-coordinates conflict")
        # 2y1 + x1 = (y2 + y1 + x1) - (y2 - y1) is not zero, as the first is not
        lam = (x1 * x1 * 3 + curve.a4 - y1) / (y1 + y1 + x1)
    x3 = lam * lam + lam - x1 - x2
    y3 = lam * (x1 - x3) - y1 - x3
    return TatePoint.affine(x3, y3)


def relation_residual_chained(curve, u: PadicElement, slack: int) -> PadicElement:
    x, y, xp = tate_xy_with_derivative(curve, u, slack=slack)
    return u * xp - x - y * 2


def ode_residual_chained(curve, u: PadicElement, slack: int) -> PadicElement:
    x, _, xp = tate_xy_with_derivative(curve, u, slack=slack)
    uxp = u * xp
    return uxp * uxp - (x ** 3) * 4 - x * x - curve.a4 * x * 4 - curve.a6 * 4


def discriminant_chained(curve) -> PadicElement:
    """Delta for b2 = 1, b4 = 2 a4, b6 = 4 a6, b8 = a6 - a4^2."""
    a4, a6 = curve.a4, curve.a6
    b4 = a4 * 2
    b6 = a6 * 4
    b8 = a6 - a4 * a4
    return -b8 - (b4 * b4 * b4) * 8 - (b6 * b6) * 27 + b4 * b6 * 9


def j_from_q_expansion(q: Fraction, terms: int) -> Fraction:
    s3 = s_k_partial_sum(q, 3, terms)
    s5 = s_k_partial_sum(q, 5, terms)
    a4 = -5 * s3
    a6 = -(5 * s3 + 7 * s5) / 12
    b4, b6, b8 = 2 * a4, 4 * a6, a6 - a4 * a4
    c4 = 1 - 48 * a4
    delta = -b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b4 * b6
    return c4 ** 3 / delta


def row_reduce_dense(rows, ncols: int):
    """(pivot columns, reduced rows): dense Gauss-Jordan over Fractions on
    the first ncols columns, every entry of every row updated."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    pivots = []
    for col in range(ncols):
        sel = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        pivots.append(col)
    return pivots, mat


def row_reduce_sparse(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination over Q on the first ncols columns, in place;
    returns the pivot columns, so their count is the rank.

    The systems of solve_division are large and mostly zero, so each pivot
    row is normalised and then subtracted only at its nonzero columns: the
    entries outside that support do not change, and the reduced echelon
    form, and so the solution with free variables at 0, is the same as
    row_reduce_dense gives.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot = rows[rank]
        inv = 1 / pivot[col]
        support = [j for j, x in enumerate(pivot) if x]
        for j in support:
            pivot[j] *= inv
        for i, row in enumerate(rows):
            factor = row[col]
            if factor and i != rank:
                for j in support:
                    row[j] -= factor * pivot[j]
        pivots.append(col)
    return pivots


def rank_over_Q(rows) -> int:
    """Plain Gaussian elimination over Fractions."""
    return len(row_reduce_dense(rows, len(rows[0]) if rows else 0)[0])


def solve_division(g: dict, f: dict, nvars: int, active: int, d: int, cap: int = 8):
    """(q, r) as Fraction dicts with g = q f + r identically and
    deg_active(r) <= d-1, for integer-coefficient dicts g and f: one linear
    system over Q, one unknown per monomial of q and of r up to the degree
    cap, reduced by row_reduce_sparse with free variables pinned to 0."""

    def monomials(total, pred=lambda e: True):
        return sorted(e for e in itertools.product(range(total + 1), repeat=nvars)
                      if sum(e) <= total and pred(e))

    deg_g = max((sum(e) for e in g), default=0)
    deg_f = max((sum(e) for e in f), default=0)
    dq = min(max(deg_g, cap - deg_f + 2), cap)
    q_vars = monomials(dq)
    r_vars = monomials(min(cap, max(deg_g, d)), lambda e: e[active] <= d - 1)
    q_index = {e: i for i, e in enumerate(q_vars)}
    r_index = {e: len(q_vars) + i for i, e in enumerate(r_vars)}
    cols = len(q_vars) + len(r_vars)
    rows = []
    for mono in monomials(dq + deg_f):
        row = [Fraction(0)] * (cols + 1)
        for fe, fc in f.items():
            qe = tuple(m - x for m, x in zip(mono, fe))
            if qe in q_index:
                row[q_index[qe]] += fc
        if mono in r_index:
            row[r_index[mono]] += 1
        row[cols] = Fraction(g.get(mono, 0))
        rows.append(row)
    pivots = row_reduce_sparse(rows, cols)
    assert not any(row[cols] for row in rows[len(pivots):]), "inconsistent system"
    solution = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        solution[col] = rows[i][cols]
    return ({e: solution[q_index[e]] for e in q_vars if solution[q_index[e]]},
            {e: solution[r_index[e]] for e in r_vars if solution[r_index[e]]})


def is_irreducible(g: Sequence[int], p: int) -> bool:
    """True when no monic polynomial of degree 1..f/2 divides the monic g of
    degree f over F_p: brute-force trial division."""
    f = len(g) - 1

    def divides(d):
        rem = [c % p for c in g]
        for i in range(len(rem) - 1, len(d) - 2, -1):
            c = rem[i]
            for j in range(len(d)):
                rem[i - len(d) + 1 + j] = (rem[i - len(d) + 1 + j] - c * d[j]) % p
        return not any(rem)

    return not any(divides(list(low) + [1])
                   for deg in range(1, f // 2 + 1)
                   for low in itertools.product(range(p), repeat=deg))


def first_irreducible_mod_p(p: int, f: int) -> tuple[int, ...]:
    """First monic irreducible polynomial of degree f over F_p, in
    itertools.product order of its low coefficients (constant term first)."""
    for tail in itertools.product(range(p), repeat=f):
        if is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise AssertionError(f"no irreducible polynomial of degree {f} mod {p}")


def smith_normal_form_pair(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """lattice.smith_normal_form with U and V kept beside A: each row and
    column operation applied to A and then to U or V."""
    r, c = shape(M)
    A = [list(row) for row in M]
    U = [list(row) for row in identity(r)]
    V = [list(row) for row in identity(c)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(r, c):
        # choose the least nonzero entry in the trailing block as pivot
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        if A[t][t] < 0:
            row_negate(t)
        dirty = False
        for i in range(t + 1, r):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                row_sub(i, t, q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, c):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                col_sub(j, t, q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the whole trailing block for the chain property
        bad = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % A[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            # fold the offending row into row t and continue reducing
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            U[t] = [a + b for a, b in zip(U[t], U[bad])]
            continue
        t += 1

    return (tuple(tuple(row) for row in U),
            tuple(tuple(row) for row in A),
            tuple(tuple(row) for row in V))


def rotund_check_brute(V, height: int) -> RotundVerdict:
    """rotund_check by ranking every n-tuple of candidate rows, in
    itertools.product order."""
    n = V.n
    rows = _normalized_rows(n, height)
    total = len(rows) ** n
    if total > lattice._MAX_CANDIDATES:
        raise SearchSpaceTooLarge(f"{total} candidate matrices at height {height}")
    for M in itertools.product(rows, repeat=n):
        if dim_image(M, V) < rank(M):
            return RotundVerdict(True, M, height)
    return RotundVerdict(False, None, height)


def relation_search_box(z, height: int, slack: int = 10):
    """relation_search by summing the z_i * m_i for every vector of the
    height box, in itertools.product order, kept verbatim."""
    n = len(z)
    box = _height_box(n, height)
    if not z:
        return []
    threshold = min(x.abs_prec for x in z) - slack
    tables = [{m: x * m for m in range(-height, height + 1)} for x in z]
    found = []
    for m_vec in box:
        if not _primitive_signed(m_vec):
            continue
        acc = tables[0][m_vec[0]]
        for i in range(1, n):
            acc = acc + tables[i][m_vec[i]]
        if acc.shift >= threshold:
            found.append(m_vec)
    return found


def mult_dependence_chained(q, u, height: int, slack: int = DEFAULT_SLACK):
    """mult_dependence_mod_kernel confirming each candidate with the chain
    prod * u_i^(m_i) ... * q^(-k) - 1 of PadicElement operators, so that
    the fields are checked only when a candidate reaches the chain, kept
    verbatim."""
    if q.is_zero or q.shift <= 0:
        raise ValueError("q needs positive exact valuation")
    n = len(u)
    box = _height_box(n, height)
    for x in u:
        if x.is_zero:
            raise ValueError("every u_i needs a known leading digit")
    threshold = min([x.abs_prec for x in u] + [q.abs_prec]) - slack
    tables = [{m: x ** m for m in range(-height, height + 1)} for x in u]
    qpow = functools.cache(q.__pow__)

    found = []
    for m_vec in box:
        if all(x == 0 for x in m_vec):
            continue
        val = sum(m * x.shift for m, x in zip(m_vec, u))
        if val % q.shift:
            continue
        k = val // q.shift
        if not _primitive_signed(tuple(m_vec) + (k,)):
            continue
        prod = tables[0][m_vec[0]]
        for i in range(1, n):
            prod = prod * tables[i][m_vec[i]]
        residual = prod * qpow(-k) - 1
        if residual.shift >= threshold:
            found.append((m_vec, k))
    return found


# StrictSeries.__add__, __sub__, scale and __mul__ and weierstrass._poly_divmod
# as they were before each coefficient became one field._sum_terms of its
# raw terms, kept verbatim as functions of the series.

def series_add(self, other):
    cap, prec = self._compatible(other)
    out: dict[Exponent, PadicElement] = dict(self.coeffs)
    for expo, c in other.coeffs.items():
        out[expo] = out[expo] + c if expo in out else c
    return StrictSeries.build(self.nvars, self.field, out, cap, prec)


def series_sub(self, other):
    return series_add(self, series_scale(other, -1))


def series_scale(self, scalar):
    out = {e: c * scalar for e, c in self.coeffs.items()}
    return StrictSeries.build(self.nvars, self.field, out, self.degree_cap, self.coeff_prec)


def series_mul(self, other):
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


def poly_divmod_stepwise(g, w, active: int, d: int):
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


def weierstrass_divide_from_zero(g, f, active: int, initial=None):
    """weierstrass.weierstrass_divide as it was when the contraction started
    at q_0 = 0, or at a given initial quotient, kept verbatim."""
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
    q = initial if initial is not None else StrictSeries.build(g.nvars, g.field, {}, cap, prec)
    for k in range(iterations):
        q_next, r = _poly_divmod(g - q * eps, w, active, d)
        if k:
            gap = q_next - q
            floor = min(prec, k * gamma)
            if _gauss_shift(gap) < floor:
                raise AssertionError(f"contraction too slow: {gauss_valuation(gap)} "
                                     f"after {k} passes (need {floor} pi-digits)")
            if gap.is_zero:
                return q_next, r
        q = q_next
    return q, r


# The literal parser as it was before each term was read exactly, kept
# verbatim as the reference for parsing.parse_element: it evaluates every
# atom at a working precision of prec + e * (the literal's token length) + 16,
# refuses a denominator whose p-valuation passes that budget, and adds the
# terms one PadicElement operation at a time before truncating to prec.

_BUDGET_TOKEN = re.compile(r"\s*(?:(\d+)|(pi|g)|([+\-*/^()]))")


def _budgeted_tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _BUDGET_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected input at position {pos}: {text[pos:pos+8]!r}")
        out.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return out


class _BudgetedParser:
    def __init__(self, tokens: list[str], field: FieldDescriptor, prec: int):
        self.tokens = tokens
        self.i = 0
        self.field = field
        # generous working precision so literal combinations do not cap early
        extra = sum(len(t) for t in tokens) * field.e + 16
        self.work = prec + extra

    def peek(self, ahead: int = 0):
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, found {tok!r}")
        return sign * int(tok)

    def parse_atom(self) -> PadicElement:
        tok = self.peek()
        if tok in ("pi", "g"):
            self.take()
            power = 1
            if self.peek() == "^":
                self.take()
                power = self.expect_int()
            if tok == "pi":
                return PadicElement.uniformizer(self.field, self.work, power)
            if self.field.kind != "unramified":
                raise ParseError("residue generator 'g' needs an unramified field")
            gval = PadicElement.from_pi_digits(
                self.field, 0, [tuple([0, 1] + [0] * (self.field.f - 2))], self.work)
            return gval ** power
        if tok is not None and tok.isdigit():
            base = int(self.take())
            if self.peek() == "^":
                self.take()
                expo = self.expect_int()
                return self._materialize(Fraction(base)) ** expo
            return self._materialize(Fraction(base))
        raise ParseError(f"expected an atom, found {tok!r}")

    def _materialize(self, value: Fraction) -> PadicElement:
        den = value.denominator
        if den != 1 and den % self.field.p == 0:
            if _vp(den, self.field.p) * self.field.e > self.work:
                raise DenominatorNotInvertible(
                    f"denominator {den} exceeds the precision budget")
        return PadicElement.from_rational(self.field, value, self.work)

    def parse_term(self) -> PadicElement:
        tok = self.peek()
        if tok in ("pi", "g"):
            return self.parse_atom()
        if tok is not None and tok.isdigit():
            if self.peek(1) == "^":
                return self.parse_atom()
            num = int(self.take())
            if self.peek() == "/":
                self.take()
                dtok = self.take()
                if not dtok.isdigit():
                    raise ParseError(f"expected a denominator, found {dtok!r}")
                den = int(dtok)
                if den == 0:
                    raise ParseError("zero denominator")
                value = Fraction(num, den)
            else:
                value = Fraction(num)
            if self.peek() == "*":
                self.take()
                return self.parse_atom() * value
            return self._materialize(value)
        raise ParseError(f"expected a term, found {tok!r}")

    def parse_expr(self) -> PadicElement:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        acc = self.parse_term()
        if sign < 0:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.take()
            nxt = self.parse_term()
            acc = acc + nxt if op == "+" else acc - nxt
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.tokens[self.i:]!r}")
        return acc


def parse_element_budgeted(text: str, field: FieldDescriptor, prec: int) -> PadicElement:
    marker = re.search(r"\+?\s*O\(pi\^(-?\d+)\)\s*$", text)
    if marker:
        prec = min(prec, int(marker.group(1)))
        text = text[: marker.start()].strip()
        if not text:
            return PadicElement.zero(field, prec)
    tokens = _budgeted_tokenize(text)
    if not tokens:
        raise ParseError("empty literal")
    if tokens == ["0"]:
        return PadicElement.zero(field, prec)
    value = _BudgetedParser(tokens, field, prec).parse_expr()
    return value.truncate(prec)
