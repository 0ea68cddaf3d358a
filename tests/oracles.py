"""Reference computations for differential tests.

Most work in plain Fractions / integers, independent of the library paths,
and are reduced into the p-adic representation only at the final comparison
step.  The others keep a library algorithm that a faster or simpler one
replaced: the brute-force rotundity check, the relation search that walks
the whole height box, the term-by-term Lambert, exp and log sums, the
separate kernels for x +- y, x +- m and the unit of 1/n that
field._sum_terms and field._rational_unit replaced, the Tate
coefficients and dual product rule built one reduced operation at a time,
and the coefficient kernels written once per field kind.
"""

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from padic_tate.dual import DualElement, _value_part
from padic_tate.errors import (
    InsufficientPrecision,
    OutsideConvergenceDomain,
    SearchSpaceTooLarge,
    ZeroElement,
)
from padic_tate.field import (
    FieldDescriptor,
    PadicElement,
    _coerce,
    _make,
    _poly_inverse,
    _shift_vec,
    _vp,
)
from padic_tate.lattice import (
    RotundVerdict,
    _height_box,
    _normalized_rows,
    _primitive_signed,
    dim_image,
    rank,
)
from padic_tate.series import _exp_truncation, _log_truncation


def vp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre_sum(n: int, p: int) -> int:
    total = 0
    power = p
    while power <= n:
        total += n // power
        power *= p
    return total


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
    other = _coerce(self, other)
    if other is NotImplemented:
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


# The Tate-series coefficients and the dual product rule as they were
# before field._int_combination and one _sum_terms fused them, kept verbatim:
# the two coefficient lambdas of tate.tate_series_point, as functions of the
# lists of u^m and u^-m, and DualElement.__mul__ with a dual other.

def x_coefficient_stepwise(upow, unegpow, m):
    return (upow[m] + unegpow[m] - 2) * m


def y_coefficient_stepwise(upow, unegpow, m):
    return upow[m] * ((m - 1) * m // 2) - unegpow[m] * (m * (m + 1) // 2) + m


def dual_mul_stepwise(self, other):
    return DualElement(self.value * other.value,
                       self.value * other.deriv + self.deriv * other.value)


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
    """tate._lambert term by term: one __mul__ and one __add__ per term,
    each reduced, from a zero known to pi^target."""
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


def exp_stepwise(x):
    """series.p_exp term by term: one __mul__, one scaling by 1/n and one
    __add__ per term, each reduced."""
    val = _value_part(x)
    field = val.field
    p, e = field.p, field.e
    target = val.abs_prec
    # v = shift/e > 1/(p-1), tested as shift*(p-1) > e
    if val.is_zero:
        if val.abs_prec * (p - 1) > e:
            one = PadicElement.one(field, val.abs_prec)
            return DualElement(one, one * x.deriv) if isinstance(x, DualElement) else one
        raise OutsideConvergenceDomain(
            "argument is an imprecise zero whose bound does not clear 1/(p-1)")
    if val.shift * (p - 1) <= e:
        raise OutsideConvergenceDomain(
            f"v(x) = {Fraction(val.shift, e)} is not > 1/(p-1) = {Fraction(1, p - 1)}")
    T = _exp_truncation(val.shift, e, p, target)
    # a PadicElement one is a constant to dual arithmetic, so for a dual x
    # acc and term turn dual at the first product
    acc = term = PadicElement.one(field, target)
    for n in range(1, T + 1):
        term = term * x * Fraction(1, n)
        acc = acc + term
    return acc.truncate(target)


def log_stepwise(y):
    """series.p_log term by term: power = power * t, then one scaling by
    (-1)^(n+1)/n and one __add__ per term, each reduced."""
    field = _value_part(y).field
    p, e = field.p, field.e
    t = y - 1
    tval = _value_part(t)
    target = tval.abs_prec
    if tval.is_zero:
        if tval.abs_prec * (p - 1) > e:
            zero = PadicElement.zero(field, tval.abs_prec)
            return DualElement(zero, y.deriv / y.value) if isinstance(y, DualElement) else zero
        raise OutsideConvergenceDomain(
            "y - 1 is an imprecise zero whose bound does not clear 1/(p-1)")
    if tval.shift * (p - 1) <= e:
        raise OutsideConvergenceDomain(
            f"v(y-1) = {Fraction(tval.shift, e)} is not > 1/(p-1) = {Fraction(1, p - 1)}")
    T = _log_truncation(tval.shift, e, p, target)
    acc = t
    power = t
    for n in range(2, T + 1):
        power = power * t
        acc = acc + power * Fraction((-1) ** (n + 1), n)
    return acc.truncate(target)


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


def rank_over_Q(rows) -> int:
    """Plain Gaussian elimination over Fractions."""
    return len(row_reduce_dense(rows, len(rows[0]) if rows else 0)[0])


def first_irreducible_mod_p(p: int, f: int) -> tuple[int, ...]:
    """First monic polynomial of degree f over F_p, in itertools.product order
    of its low coefficients (constant term first), that no monic polynomial of
    degree 1..f/2 divides: brute-force trial division."""

    def divides(d, g):
        rem = list(g)
        for i in range(len(rem) - 1, len(d) - 2, -1):
            c = rem[i]
            for j in range(len(d)):
                rem[i - len(d) + 1 + j] = (rem[i - len(d) + 1 + j] - c * d[j]) % p
        return not any(rem)

    for tail in itertools.product(range(p), repeat=f):
        g = list(tail) + [1]
        if not any(divides(list(low) + [1], g)
                   for deg in range(1, f // 2 + 1)
                   for low in itertools.product(range(p), repeat=deg)):
            return tuple(g)
    raise AssertionError(f"no irreducible polynomial of degree {f} mod {p}")


def rotund_check_brute(V, height: int,
                       max_candidates: int = 5_000_000) -> RotundVerdict:
    """rotund_check by ranking every n-tuple of candidate rows, in
    itertools.product order."""
    n = V.n
    rows = _normalized_rows(n, height, max_candidates)
    total = len(rows) ** n
    if total > max_candidates:
        raise SearchSpaceTooLarge(f"{total} candidate matrices at height {height}")
    for M in itertools.product(rows, repeat=n):
        if dim_image(M, V) < rank(M):
            return RotundVerdict(True, M, height)
    return RotundVerdict(False, None, height)


def relation_search_box(z, height: int, slack: int = 10,
                        max_candidates: int = 5_000_000):
    """relation_search by summing the z_i * m_i for every vector of the
    height box, in itertools.product order, kept verbatim."""
    n = len(z)
    box = _height_box(n, height, max_candidates)
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
