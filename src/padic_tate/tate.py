"""The Tate curve y^2 + xy = x^3 + a4(q) x + a6(q) and its uniformization.

N = abs_prec(q) is the working precision of the curve, and valuations count
pi-digits.  The modular coefficients are Lambert sums
sum_m c_m q^m / (1 - q^m), with c_m = m^k for s_k(q) and the exact integer
c_m = -(5m^3 + 7m^5)/12 for a6, so that p = 2 and p = 3 lose no precision.
A sum with integer c_m is the power series sum_n A_n q^n,
A_n = sum_{d|n} c_d, which needs no inversion.  Its A_n are nonzero, so the
series is hypergeometric, and _divisor_sum_series sums it with
series._hypergeometric, the rectangular-splitting kernel of exp and log, as
one raw term at shift v(q), exact modulo pi^N and reduced by one _make.  The
sums stop after (N - 1) // v(q) terms, the last below pi^N.
curve_coefficients sums a4 = -5 s_3, a6 and s_1, which the points add.

A sum is reduced once, not once per term: its raw terms, each exact modulo
its own precision, are added at one common shift by field._sum_terms and
normalised by one _make.  It is known to the least precision among its
terms (and N, if it is capped there), and its digits are those of the
term-by-term sum.

Points are produced by the map u -> (X(q,u), Y(q,u)) (Silverman, Advanced
Topics in the Arithmetic of Elliptic Curves, V.3) with

    X = u/(1-u)^2 + sum_m m (u^m + u^-m - 2) q^m / (1 - q^m)
    Y = u^2/(1-u)^3 + sum_m ((m-1)m/2 u^m - m(m+1)/2 u^-m + m) q^m / (1 - q^m)

and X' = dX/du.  Write R = rel_prec(u), A = abs_prec(u), su = v(u) and
sq = v(q), so 0 <= su < sq, and t = v(1 - u); t su = 0.
- The claims.  X, Y and X' are claimed to the precisions that these series
  carry when each product and sum tracks its own, their reference
  (tests/oracles.py, X' on the dual seed u + eps).  Term m of a sum is
  known to min(R + m sq, N + (m-1) sq) - m su, and term m of X' to
  min(R + m sq, N + (m-1) sq + g_m) - (m+1) su, g_m for the digits that
  cancel in u^(m-1) - u^(-m-1); each is least at m = 1, as sq > su and
  u^2 - 1 divides u^2m - 1.  So the sums are known to
  P = min(N, R + sq) - su, and that of X' to P' = min(R + sq, N + g) - 2 su,
  with g = 0 at su > 0, where u^2 - 1 is a unit, and g = min(A, t + v(1 + u))
  at su = 0, both read from u's digits.  The principal parts, as chains of
  __mul__ and invert through (1-u)^-1, known to A - 2t at shift -t, are
  known to A - 3t, A - 4t + su and, on the dual seed, A - 4t.  So X is
  claimed to min(P, A - 3t), Y to min(P, A - 4t + su) and X' to
  min(P', A - 4t), and each holds the digits below its claim of its value
  at the representatives of q and u, as its reference does.
- Theta.  The values come from Tate's theta function (Roquette, Analytic
  Theory of Elliptic Functions over Local Fields, 1970; Silverman, V.3)

      theta(u) = sum_{n in Z} (-1)^n q^(n(n-1)/2) u^n
               = (1 - u) prod_{n>=1} (1 - q^n)(1 - q^n u)(1 - q^n / u).

  Write D = u d/du and L_k = D^k log theta.  Summed over n in Z,
  z/(1-z)^2 at z = q^n u is -L_2, and z/(1-z)^2 is unchanged by z -> 1/z, so
  X = -L_2 - 2 s_1(q).  2z^2/(1-z)^3 = z(1+z)/(1-z)^3 - z/(1-z)^2 gives
  Y = (L_2 - L_3)/2 + s_1(q), and X' = -L_3 / u.  D^j theta is the same
  series with term n weighted by n^j, and

      theta^2 L_2 = theta D^2 theta - (D theta)^2
      theta^3 L_3 = theta^2 D^3 theta - 3 theta D theta D^2 theta + 2 (D theta)^3

  so a point is four sums over one chain of terms and one inversion of
  theta's unit.  Term n >= 0 lies at shift n(n-1)/2 sq + n su and term -k
  at k(k+1)/2 sq - k su >= k(k-1)/2 sq + k, so every term is integral, and
  about 2 sqrt(2K / sq) of them lie below pi^K.  The other factors of the
  product are units, so v(theta) = t: the factor 1 - u carries the pole at
  u = 1, and the principal parts need no code of their own.
- The working precision K.  _theta_sums builds the term at shift s from a
  chain of unit products taken modulo p^ceil((K - s)/e), a multiple of
  pi^(K - s), so each sum D^j theta is an integral vector exact modulo
  pi^K, and so are the products of sums theta^2 L_2 and theta^3 L_3.
  theta's unit, theta / pi^t, is then known to pi^(K - t), and so is its
  inverse; one of those integral products times the inverse's k-th power,
  at shift -k t, is known to pi^(K - (k+1) t).  So L_2 is known to K - 3t,
  L_3 to K - 4t, and X' = -L_3 / u, with u's unit inverted to K digits, to
  K - 4t - su.  Y's halving costs no digit, at p = 2 neither:
  theta^3 (L_2 - L_3) =
  theta^2 (D^2 theta - D^3 theta) + theta D theta (3 D^2 theta - D theta)
  - 2 (D theta)^3 has the even weights n^2 (1 - n) and n (3n - 1) in its two
  sums, so the integers it is computed as are even, and their half is the
  same expression with half those weights, again exact modulo pi^K.  So
  K = max(claim(X) + 3t, claim(Y) + 4t, claim(X') + 4t + su), with no other
  margin, and each coordinate is one _sum_terms, at its claim, of its theta
  term and its multiple of s_1, known to N.  The deriv flag decides only
  whether X' is made.
- The kernels.  One chain loop and one weighted total run on plain ints
  over Q_p, and any field of one-entry vectors (e = f = 1, pi = c p), and
  elsewhere on coefficient lists through _vec_mul and _shift_vec: the same
  products, reduced modulo the same powers of p, so the same integers.

The group law and its checks are sums of monomials.  The on-curve
residual, the chord's x3 and y3, the tangent's numerator and denominator,
the ODE and X' residuals and Delta are each one _monomial_sum: every
monomial starts with its int, 1 where the chain has none, and is one
field._product_term, that int times a product of elements, known to what
the chain of __mul__ and _scale_rational claims, and the sum is reduced by
one _make at the least of those precisions, so its digits and precision
are the operator chain's (tests/oracles.py).  Two rules keep each claim the
chain's.  A sum the chain writes twice stays two terms: y1 + y1, not 2 y1,
which at p = 2 would claim e more digits.  A difference the chain
multiplies stays one element: lam (x1 - x3), as distributing it lowers the
claim where v(x1 - x3) > v(x1).

verify_ode and relation_residual both need (X, Y, X') at one u, so each
TateCurve also remembers its last such evaluation, keyed on (u, slack): u
compares by field, shift, coefficients and absolute precision, so another
u, field, precision or slack recomputes.  The entry is replaced by one item
assignment, so a concurrent reader sees a key with its own result.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    DomainError,
    ImpreciseValuation,
    InsufficientPrecision,
    NonpositiveValuation,
    OffCurveInput,
    OnKernel,
    PrecisionCollapse,
    ZeroElement,
)
from .field import (
    DEFAULT_SLACK,
    PadicElement,
    ValuationResult,
    _ceil_div,
    _product_term,
    _shift_vec,
    _sum_terms,
    _vec_invert,
    _vec_mul,
    _vec_val,
)
from .series import _hypergeometric

# agreement reported for two identity points, which are equal by kind
_UNBOUNDED_AGREEMENT = ValuationResult("at_least", Fraction(10 ** 9))


@dataclass(frozen=True)
class TateCurve:
    q: PadicElement
    a4: PadicElement
    a6: PadicElement
    # s_1(q), which X and Y add: a function of q, so neither compared nor shown
    s1: PadicElement = field(compare=False, repr=False)
    # [((u, slack), (X, Y, X'))] of the last tate_xy_with_derivative call
    memo: list = field(default_factory=lambda: [None], init=False, compare=False, repr=False)


@dataclass(frozen=True)
class TatePoint:
    kind: str                    # "affine" | "identity"
    x: Optional[PadicElement] = None
    y: Optional[PadicElement] = None

    @staticmethod
    def identity() -> "TatePoint":
        return TatePoint("identity")

    @staticmethod
    def affine(x: PadicElement, y: PadicElement) -> "TatePoint":
        return TatePoint("affine", x, y)

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    @property
    def prec(self) -> Optional[int]:
        if self.is_identity:
            return None
        return min(self.x.abs_prec, self.y.abs_prec)

    def __str__(self) -> str:
        if self.is_identity:
            return "identity"
        return f"({self.x}, {self.y})"


def _require_positive_valuation(q: PadicElement) -> int:
    if q.is_zero:
        raise NonpositiveValuation("q is an imprecise zero")
    if q.shift <= 0:
        raise NonpositiveValuation(f"v(q) = {q.valuation()} must be positive")
    return q.shift


def _divisor_sum_series(q: PadicElement, coeff: Callable[[int], int]) -> PadicElement:
    """sum_m coeff(m) q^m / (1 - q^m) for integer coefficients, summed as
    sum_n A_n q^n, A_n = sum_{d|n} coeff(d) from a divisor sieve, over the
    T = (N - 1) // v(q) terms below pi^N, N = abs_prec(q).  The two differ
    by terms q^n with n > T, at shift n v(q) >= N and so zero at pi^N, and
    the sum is known to pi^N, as the Lambert sum is.  q is not an imprecise
    zero, so N > v(q) and T >= 1.

    Every A_n is nonzero, so sum_n A_n q^n = A_1 q sum_{k<T} d_k q^k with
    d_k = A_(k+1)/A_1 is hypergeometric, d_k = d_(k-1) A_(k+1)/A_k, and
    series._hypergeometric sums it by rectangular splitting, as p_log sums
    its series.  Its precision argument needs R_0 integral:
    V(k) = k v(q) + e (v_p(A_(k+1)) - v_p(A_1)) >= 0.  Each caller's d_k
    is an integer, so that holds: A_1 = 1 for s_k, A_1 = -1 for a6, and
    A_1 = -5 for a4, where 5 divides every A_n = -5 sigma_3(n).  The
    kernel's vector is exact modulo pi^rel_prec(q); times q's unit, at
    q's shift, and times A_1, it is one raw term exact modulo pi^N, reduced
    by one _make."""
    target = q.abs_prec
    terms = (target - 1) // q.shift
    sums = [0] * (terms + 1)
    for d in range(1, terms + 1):
        c = coeff(d)
        for n in range(d, terms + 1, d):
            sums[n] += c
    vec = _vec_mul(q.field, q.coeffs, _hypergeometric(q, sums[2:], sums[1:-1], q.rel_prec))
    return _sum_terms(q.field, [(target, q.shift, [sums[1] * c for c in vec])])


def s_k(q: PadicElement, k: int) -> PadicElement:
    """sum_{n>=1} n^k q^n / (1 - q^n), truncated once n v(q) clears the target."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if q.is_zero:
        # v(q) >= abs_prec > 0, so every term sits below the precision floor
        return PadicElement.zero(q.field, q.abs_prec)
    _require_positive_valuation(q)
    return _divisor_sum_series(q, lambda n: n ** k)


def a6_coefficient(n: int) -> int:
    """(5n^3 + 7n^5)/12, an exact integer for every n, as 12 divides
    n^3 (5 + 7n^2).  Mod 3: 5 + 7n^2 = 2(1 - n^2), and n (1 - n^2) =
    -(n - 1) n (n + 1) is a product of three consecutive integers.  Mod 4:
    n^3 = 0 for n even, and n^2 = 1, so 5 + 7n^2 = 12 = 0, for n odd."""
    return (5 * n ** 3 + 7 * n ** 5) // 12


def curve_coefficients(q: PadicElement) -> TateCurve:
    """a4 = -5 s_3(q), a6 and s_1(q), each summed with integer coefficients."""
    _require_positive_valuation(q)
    a4 = _divisor_sum_series(q, lambda n: -5 * n ** 3)
    a6 = _divisor_sum_series(q, lambda n: -a6_coefficient(n))
    return TateCurve(q=q, a4=a4, a6=a6, s1=_divisor_sum_series(q, lambda n: n))


def reduce_to_fundamental(q: PadicElement, u: PadicElement) -> tuple[PadicElement, int]:
    """u * q^-n with n = floor(v(u)/v(q)), so 0 <= v(u q^-n) < v(q)."""
    sq = _require_positive_valuation(q)
    if u.is_zero:
        raise ImpreciseValuation("u has no exact valuation")
    n = u.shift // sq
    if n == 0:
        return u, 0
    u_red = u * q ** (-n)
    assert 0 <= u_red.shift < sq
    return u_red, n


def _theta_sums(q: PadicElement, u: PadicElement, inverse, work: int) -> list:
    """[D^j theta for j = 0..3], each sum_n n^j (-1)^n q^(n(n-1)/2) u^n over
    the terms below pi^work, as an integral vector congruent to its series
    modulo pi^work (module docstring).  u is plain, 0 <= v(u) < v(q), and
    inverse is its unit's inverse."""
    field = q.field
    p, e, sq, su = field.p, field.e, q.shift, u.shift
    if field.coeff_len == 1:
        pi = field.eis_unit * p
        one, unit, qunit, inv = 1, u.coeffs[0], q.coeffs[0], inverse[0]

        def mul(a, b, mod):
            return a * b % mod

        def shift(a, s):
            return a * pi ** s
    else:
        one, unit, qunit, inv = [1] + [0] * (field.coeff_len - 1), u.coeffs, q.coeffs, inverse

        def mul(a, b, mod):
            return [c % mod for c in _vec_mul(field, a, b)]

        def shift(a, s):
            return _shift_vec(field, a, s)
    ns, terms = [0], [one]
    # term n+1 is term n times -q^n u, and term -(k+1) is term -k times
    # -q^(k+1) u^-1, so each chain steps by one more v(q) each time
    for step, gap, ratio in ((1, su, unit), (-1, sq - su, mul(qunit, inv, p ** work))):
        n = s = 0
        term = one
        while s + gap < work:
            n, s = n + step, s + gap
            mod = p ** _ceil_div(work - s, e)
            term, ratio = mul(term, ratio, mod), mul(ratio, qunit, mod)
            ns.append(n)
            terms.append(shift(term, s))
            gap += sq
    entries = [terms] if field.coeff_len == 1 else list(zip(*terms))
    weights = ([(-1 if n & 1 else 1) * n ** j for n in ns] for j in range(4))
    return [[sum(map(operator.mul, w, entry)) for entry in entries] for w in weights]


def _series_point(curve: TateCurve, u: PadicElement, slack: int, deriv: bool) -> list:
    """[X, Y], and X' with deriv, at a plain u in the fundamental domain:
    the guards, the claimed precisions and the working precision K, the
    theta sums modulo pi^K, and each coordinate as one _sum_terms of its
    log-derivative term and its multiple of s_1(q) (module docstring)."""
    q = curve.q
    sq = q.shift
    if u.is_zero:
        raise ImpreciseValuation("u has no exact valuation")
    su = u.shift
    if not 0 <= su < sq:
        raise DomainError("u must be reduced to the fundamental domain first")
    target, field, a = q.abs_prec, q.field, u.abs_prec
    # t = v(1 - u) from u's digits, in u's own field: the field check comes later
    t = _vec_val(u.field, [u.coeffs[0] - 1, *u.coeffs[1:]]) if su == 0 else 0
    if t is None or t >= a:
        raise OnKernel("u is indistinguishable from 1 at this precision")
    if 3 * t > target - slack:
        raise InsufficientPrecision(
            f"principal part at v(1-u) = {Fraction(t, u.field.e)} exhausts the budget")
    u._check_same_field(q)
    prec = min(target, u.rel_prec + sq) - su
    # u^2 - 1 = (u - 1)(u + 1) is a unit at su > 0; 1 + u's vector is
    # nonzero, as its first entry is a reduced coefficient plus 1
    g = 0 if su else min(a, t + _vec_val(field, [u.coeffs[0] + 1, *u.coeffs[1:]]))
    dprec = min(u.rel_prec + sq, target + g) - 2 * su
    xc, yc, dc = min(prec, a - 3 * t), min(prec, a - 4 * t + su), min(dprec, a - 4 * t)
    # each claim and what dividing by theta^2, theta^3 and, for X', u costs it
    work = max(xc + 3 * t, yc + 4 * t, dc + 4 * t + su)
    inverse = _vec_invert(field, u.coeffs, work)
    theta, d1, d2, d3 = _theta_sums(q, u, inverse, work)

    def mul(x, y):
        return _vec_mul(field, x, y)
    # m2 = -theta^2 L2 and m3 = -theta^3 L3; m3 - theta m2 = theta^3 (L2 - L3)
    # is even, and psi inverts theta's unit
    psi = _vec_invert(field, _shift_vec(field, theta, -t, _ceil_div(work, field.e)), work - t)
    psi2, square = mul(psi, psi), mul(d1, d1)
    psi3 = mul(psi2, psi)
    m2 = [x - y for x, y in zip(square, mul(theta, d2))]
    inner = [3 * x - y for x, y in zip(mul(d1, d2), mul(theta, d3))]
    m3 = [x - 2 * y for x, y in zip(mul(theta, inner), mul(square, d1))]
    half = [(x - y) // 2 for x, y in zip(m3, mul(theta, m2))]
    out = [_sum_terms(field, [(xc, -2 * t, mul(m2, psi2)), _product_term(-2, curve.s1)]),
           _sum_terms(field, [(yc, -3 * t, mul(half, psi3)), curve.s1._term(1)])]
    if deriv:
        out.append(_sum_terms(field, [(dc, -3 * t - su, mul(mul(m3, psi3), inverse))]))
    return out


def tate_series_point(curve: TateCurve, u: PadicElement,
                      slack: int = DEFAULT_SLACK) -> tuple[PadicElement, PadicElement]:
    """(X(q,u), Y(q,u)) for u already reduced to the fundamental domain."""
    return tuple(_series_point(curve, u, slack, False))


def phi(curve: TateCurve, u: PadicElement, slack: int = DEFAULT_SLACK) -> TatePoint:
    """The uniformization map; q^Z lands on the identity."""
    if u.is_zero:
        raise ZeroElement("u must have a known nonzero digit or exact valuation")
    u_red, _ = reduce_to_fundamental(curve.q, u)
    try:
        x, y = tate_series_point(curve, u_red, slack=slack)
    except OnKernel:
        return TatePoint.identity()
    return TatePoint.affine(x, y)


def _monomial_sum(*monomials) -> PadicElement:
    """The sum of the monomials, each the arguments (c, w, *more) of one
    field._product_term, reduced by one _make (module docstring).  Fields
    are checked in the order of the operator chain m1 + m2 + ..., each
    product's factors left to right and then the term against the first,
    so a FieldMismatch names the pair the chain names."""
    head, terms = monomials[0][1], []
    for c, first, *rest in monomials:
        for x in rest:
            first._check_same_field(x)
        head._check_same_field(first)
        terms.append(_product_term(c, first, *rest))
    return _sum_terms(head.field, terms)


def _equation_residual(curve: TateCurve, point: TatePoint) -> PadicElement:
    if point.is_identity:
        raise ValueError("identity point has no affine residual")
    x, y = point.x, point.y
    return _monomial_sum((1, y, y), (1, x, y), (-1, x, x, x), (-1, curve.a4, x), (-1, curve.a6))


def curve_equation_residual(curve: TateCurve, point: TatePoint) -> ValuationResult:
    """Valuation of y^2 + xy - x^3 - a4 x - a6 at an affine point."""
    return _equation_residual(curve, point).valuation()


def _assert_on_curve(curve: TateCurve, point: TatePoint, slack: int) -> None:
    res = _equation_residual(curve, point)
    if not res.is_zero and res.shift < max(0, point.prec - slack):
        raise OffCurveInput(f"curve equation residual has valuation {res.valuation()}")


def curve_neg(curve: TateCurve, point: TatePoint) -> TatePoint:
    if point.is_identity:
        return point
    return TatePoint.affine(point.x, -point.y - point.x)


def curve_add(curve: TateCurve, P: TatePoint, Q: TatePoint,
              slack: int = DEFAULT_SLACK) -> TatePoint:
    """Chord-tangent law for y^2 + xy = x^3 + a4 x + a6 (a1 = 1, a2 = a3 = 0)."""
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    _assert_on_curve(curve, P, slack)
    _assert_on_curve(curve, Q, slack)
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    dx = x2 - x1
    if not dx.is_zero:
        lam = (y2 - y1) / dx
    else:
        if _monomial_sum((1, y2), (1, y1), (1, x1)).is_zero:
            return TatePoint.identity()
        if not (y2 - y1).is_zero:
            raise PrecisionCollapse(
                "x-coordinates agree to precision but y-coordinates conflict")
        # 2y1 + x1 = (y2 + y1 + x1) - (y2 - y1) is not zero, as the first is not
        lam = (_monomial_sum((3, x1, x1), (1, curve.a4), (-1, y1))
               / _monomial_sum((1, y1), (1, y1), (1, x1)))
    x3 = _monomial_sum((1, lam, lam), (1, lam), (-1, x1), (-1, x2))
    y3 = _monomial_sum((1, lam, x1 - x3), (-1, y1), (-1, x3))
    return TatePoint.affine(x3, y3)


def point_difference_valuation(P: TatePoint, Q: TatePoint) -> ValuationResult:
    """Coordinatewise agreement of two affine points, as a valuation bound."""
    if P.is_identity and Q.is_identity:
        return _UNBOUNDED_AGREEMENT
    if P.is_identity or Q.is_identity:
        raise ValueError("cannot compare an affine point with the identity")
    dx, dy = P.x - Q.x, P.y - Q.y
    lo = min(dx.shift, dy.shift)
    exact = any(not d.is_zero and d.shift == lo for d in (dx, dy))
    return ValuationResult("exact" if exact else "at_least", Fraction(lo, dx.field.e))


def j_invariant(curve: TateCurve) -> PadicElement:
    """j = c4^3 / Delta with c4 = 1 - 48 a4."""
    delta = curve_discriminant(curve)
    if delta.is_zero:
        raise PrecisionCollapse("discriminant is indistinguishable from zero")
    return (-(curve.a4 * 48 - 1)) ** 3 / delta


def curve_discriminant(curve: TateCurve) -> PadicElement:
    """Delta = -b8 - 8 b4^3 - 27 b6^2 + 9 b4 b6 for b2 = 1, b4 = 2 a4,
    b6 = 4 a6 and b8 = a6 - a4^2, as monomials in a4 and a6."""
    a4, a6 = curve.a4, curve.a6
    return _monomial_sum((-1, a6), (1, a4, a4), (-64, a4, a4, a4), (-432, a6, a6), (72, a4, a6))


def tate_xy_with_derivative(curve: TateCurve, u: PadicElement,
                            slack: int = DEFAULT_SLACK):
    """(X, Y, X') at u, X' = dX/du, from the theta sums (module docstring).

    The curve keeps one entry, the last (u, slack) and its result, so a
    second call at the same u (verify_ode then relation_residual) reuses
    it; u must be equal as an element, field and absolute precision
    included.  Calls that raise leave the entry unchanged.
    """
    key = (u, slack)
    last = curve.memo[0]
    if last is not None and last[0] == key:
        return last[1]
    out = tuple(_series_point(curve, u, slack, True))
    curve.memo[0] = (key, out)
    return out


def _relation_residual(curve: TateCurve, u: PadicElement, slack: int) -> PadicElement:
    x, y, xp = tate_xy_with_derivative(curve, u, slack=slack)
    return _monomial_sum((1, u, xp), (-1, x), (-2, y))


def relation_residual(curve: TateCurve, u: PadicElement,
                      slack: int = DEFAULT_SLACK) -> ValuationResult:
    """Valuation of u X' - X - 2Y."""
    return _relation_residual(curve, u, slack).valuation()


def _ode_residual(curve: TateCurve, u: PadicElement, slack: int) -> PadicElement:
    x, _, xp = tate_xy_with_derivative(curve, u, slack=slack)
    return _monomial_sum((1, u, xp, u, xp), (-4, x, x, x), (-1, x, x), (-4, curve.a4, x),
                         (-4, curve.a6))


def verify_ode(curve: TateCurve, u: PadicElement,
               slack: int = DEFAULT_SLACK) -> ValuationResult:
    """Valuation of (u X')^2 - 4X^3 - X^2 - 4 a4 X - 4 a6 at u."""
    return _ode_residual(curve, u, slack).valuation()
