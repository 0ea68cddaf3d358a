"""The Tate curve y^2 + xy = x^3 + a4(q) x + a6(q) and its uniformization.

Every q-series here is a Lambert sum sum_m c_m q^m / (1 - q^m); N = abs_prec(q)
is the working precision and valuations count pi-digits.  The modular
coefficients use c_m = m^k for s_k(q) and the exact integer
c_m = -(5m^3 + 7m^5)/12 for a6, so that p = 2 and p = 3 lose no precision.  A
sum with integer c_m is the power series sum_n A_n q^n, A_n = sum_{d|n} c_d,
which needs no inversion, so curve_coefficients builds no weight.  Its A_n
are nonzero, so the series is hypergeometric, and _divisor_sum_series sums
it with series._hypergeometric, the rectangular-splitting kernel of exp and
log, as one raw term at shift v(q), exact modulo pi^N and reduced by one
_make.  The point sums need the weights w_m = q^m / (1 - q^m), which depend
only on the curve, so each TateCurve keeps those computed so far and
_weights extends them on demand, up to the largest term count any point has
asked for; w_m = q^m + q^2m + ... lies at shift m v(q) and is known to the
precision of q^m, N + (m-1) v(q), so each weight is summed from its own
element powers of q.  The sums of curve_coefficients and s_k stop after
(N - 1) // v(q) terms, the last below pi^N, and the point sums after
ceil(N / (v(q) - v(u))).

A sum is reduced once, not once per term: its raw terms, each exact modulo
its own precision, are added at one common shift by field._sum_terms and
normalised by one _make.  It is known to the least precision among its
terms (and N, if it is capped there), and its digits are those of the
term-by-term sum.

Points are produced by the map u -> (X(q,u), Y(q,u)) (Silverman, Advanced
Topics in the Arithmetic of Elliptic Curves, V.3) with

    X = u/(1-u)^2 + sum_m m (u^m + u^-m - 2) q^m / (1 - q^m)
    Y = u^2/(1-u)^3 + sum_m ((m-1)m/2 u^m - m(m+1)/2 u^-m + m) q^m / (1 - q^m)

With S_m = u^m + u^-m the coefficients are X_m = m (S_m - 2) and
Y_m = m^2 u^m - m(m+1)/2 S_m + m.  Call the element sums of X and Y the
sums, capped at N, of the terms m S_m w_m and -2m w_m, and m^2 u^m w_m,
-m(m+1)/2 S_m w_m and m w_m, each an element product times an int, known to
the precision __mul__ and the int give it.  Each term is exact modulo its
own precision, so these sums are sound, and no digit or precision differs
from the sums of separately reduced coefficients, the reference of the pass
(tests/oracles.py).

X and Y are not summed as elements: _series_point makes the element sums'
digits in one integer pass.  Write R = rel_prec(u), su = v(u) and
sq = v(q), in pi-digits, so 0 <= su < sq.
- Precision.  u^m lies at shift m su and is known to m su + R, and u^-m lies
  at -m su and is known to R - m su, so S_m is known to R - m su.  For su > 0
  its shift is -m su; for su = 0 it is >= 0, so abs(w_m) + shift(S_m) >= N
  and the digits of S_m never set the precision.  With w_m's own shift and
  abs_prec, and e v_p(k) more for an int factor k, the term m S_m w_m is
  known to min(R + m sq, N + (m-1) sq) - m su + e v_p(m), capped at N, and
  -m(m+1)/2 S_m w_m likewise with e v_p(m(m+1)/2); m^2 u^m w_m is known to
  more, and the multiples of w_m to N or more.  These bounds grow with m, as
  sq > su, and m = 1 has unit factors, so the least of them, capped at N, is
  P = min(N, R + sq) - su.
- Digits.  Every term of an element sum is exact modulo its own precision,
  which is >= P.  So the element sum is congruent modulo pi^P to the exact
  sum of the same terms over the representatives of u, of u^-1 (u.invert()'s,
  reduced to R digits) and of the w_m.  _series_point computes that exact
  sum modulo pi^P and normalises it by one _make at P, so the digits, P and
  the shift are those of the element sum.
- The pass.  Term m is three pieces, u^-m w_m, u^m w_m and w_m, at shifts
  m(sq - su), m(sq + su) and m sq, each >= 1, so every piece is an integral
  absolute vector and no power of pi scales the sum.  A piece at shift s
  counts only modulo pi^P, so its unit factors are taken modulo
  p^ceil((P - s)/e), a multiple of pi^(P - s); s grows with m, so the
  chains of u^m and u^-m, and u and u^-1 themselves, keep fewer digits at
  each step.  u^-1 is inverted to min(R, P) digits, all that any
  pi^(P - s) keeps.  A piece at or above pi^P adds nothing and is left
  out, the chain of u^m stops with its pieces, and the pass ends when
  u^-m w_m, the lowest piece, reaches pi^P, by m = ceil(N / (sq - su)) at
  the latest.

X' = dX/du is what the same series gives on the dual number u + eps
(DualElement, u' = 1), whose element sums are its reference
(tests/oracles.py): the _sum_terms, with no cap, of m S'_m w_m, with
S'_m = (u^m)' + (u^-m)' = m (u^(m-1) - u^(-m-1)) reduced.
tate_xy_with_derivative sums it in the same integer pass, with no dual chain:
- Precision.  By the product bounds S'_m is known to R - (m+1) su, at shift
  -(m+1) su + g_m, g_m = min(R, e v_p(m) + v(u^2m - 1)) for the digits that
  cancel in u^(m-1) - u^(-m-1) (none at su > 0).  So m S'_m w_m is known to
  T_m = min(R + m sq, N + (m-1) sq + g_m) - (m+1) su + e v_p(m).  Both
  bounds are least at m = 1, as sq > su and u^2 - 1 divides u^2m - 1, so
  X' is known to P' = min(R + sq, N + g_1) - 2 su, g_1 the shift of the
  element u^2 - 1: P - su at su > 0, and not capped at N.  g_1 is read
  from integers, with no element.  The element u u - 1 is known to
  A + su, A = abs_prec(u).  At su > 0 it is -1 plus a multiple of pi, so
  g_1 = 0.  At su = 0 its shift is the valuation of u^2 - 1 = (u - 1)(u + 1)
  at u's representative, capped at A; 1 - u is not an imprecise zero, so
  t = v(1 - u) < A is exact, and g_1 = min(A, t + v(1 + u)).
- Digits.  As for X and Y, the element sum is congruent modulo pi^P' to the
  exact sum of m^2 (u^(m-1) - u^(-m-1)) w_m over the representatives, and
  so to u^-1 Z, Z = sum_m m^2 (u^m w_m - u^-m w_m), the pass's first two
  pieces times m^2 and -m^2: replacing u^(m-1) by u^-1 u^m changes term m
  only at pi^(R + sq) and above, and an error of relative size
  pi^min(R, W) in the inverted u^-1 only at pi^(min(R, W) + sq - 2 su), both
  >= P' as P' <= R + sq - 2 su.  So the pass takes its pieces modulo
  pi^(W - s), W = max(P, P' + su), and X' is one _make of u^-1 Z at shift
  -su and precision P'.  Taking Z modulo pi^(P - s) instead loses digits of
  X' at su = 0 with u^2 = 1 mod pi.

The principal parts u/(1-u)^2, u^2/(1-u)^3 and (u/(1-u)^2)' = (1+u)/(1-u)^3
are one raw term each, added to the pass's term of the same coordinate by
one _sum_terms, so that X, Y and X' are one _make each.  Their reference is
the element chains u (1-u)^-1 (1-u)^-1 and u u (1-u)^-1 (1-u)^-1 (1-u)^-1 of
__mul__ and invert, and for X' the derivative of the first on the dual seed
u + eps (DualElement, tests/oracles.py).  Write A = abs_prec(u),
t = v(1-u) and I for the inverse of the unit of 1 - u, taken to its
rel_prec A - t.  t su = 0: at su > 0, 1 - u = 1 mod pi, and at t > 0,
u = 1 mod pi.
- Precision.  (1-u)^-1 is I at shift -t, known to A - 2t.  __mul__ knows
  a b to min(abs(a) + shift(b), abs(b) + shift(a)), so with t su = 0 the
  chain of X is known to A - 3t, at shift su - 2t, and that of Y to
  A - 4t + su, at 2 su - 3t.  Each link is a product of units known to a
  relative precision of A - t or A - su, >= 1 as 1 - u and u are not
  imprecise zeros, so no link is a zero whose shift would be its
  precision.  On the seed (u, 1), its 1 known to A, (1-u)^-1 has the
  derivative (1-u)^-2, known to A - 3t at shift -2t; the first product's
  derivative u (1-u)^-2 + (1-u)^-1 = (1-u)^-2 is then known to A - 3t,
  and the second's, a Leibniz sum of two products each known to A - 4t,
  to A - 4t.
- Digits.  Every link is congruent to the exact value at u's
  representative modulo its own precision, and so is each raw term:
  u I^2 at shift su - 2t, u^2 I^3 at 2 su - 3t and (1+u) I^3 at -3t are,
  as I is known to the relative precision A - t, off by at most
  pi^(A - 3t + su), pi^(A - 4t + 2 su) and pi^(A - 4t + v(1+u)).  So a
  term given its chain's precision, A - 3t, A - 4t + su and A - 4t, has
  the chain's digits there, and its coordinate's one _make, at the lesser
  precision of its two terms, the digits, precision and shift of the sum
  of two elements.  X' takes the dual chain's A - 4t and not what the
  closed form alone is known to, a digit more at p = 2, where pi divides
  1 + u when t > 0, which would change what the checks print.

Over Q_p, and any field with one-entry vectors (e = f = 1, pi = c p),
the pass runs on plain ints, not on lists: _int_pass takes each piece
modulo the same p^(work - s) at the same steps as _list_pass, which
extension fields run, so its three sums are the same integers, and X, Y
and X' the same digits, precisions and shifts.  The two share every
precision, P, P' and W, and u's inverse, computed before the choice.

verify_ode and relation_residual both need (X, Y, X') at one u, so each
TateCurve also remembers its last such evaluation, keyed on (u, slack): u
compares by field, shift, coefficients and absolute precision, so another
u, field, precision or slack recomputes.  The entry is replaced by one item
assignment, so a concurrent reader sees a key with its own result.
"""

from __future__ import annotations

import itertools
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
    # q^m / (1 - q^m) for m = 1, 2, ..., as far as any point has asked
    weights: list = field(default_factory=list, init=False, compare=False, repr=False)
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


def _weights(q: PadicElement, weights: list, terms: int) -> list:
    """weights, holding q^m / (1 - q^m) for m = 1, 2, ... at this q, extended
    in place to ``terms`` entries, each weight computed once as one _sum_terms
    of q^m, q^2m, ...: it is known to the precision of q^m, N + (m-1) v(q) for
    N = abs_prec(q), and each q^n with n > ceil(N / v(q)) + m - 2 lies past it.
    The new entries go in by one slice assignment, so a concurrent extension
    of the same list rewrites equal values at the same places."""
    start = len(weights)
    if terms > start:
        top = _ceil_div(q.abs_prec, q.shift) + terms - 2
        chain = itertools.accumulate(itertools.repeat(q, top), operator.mul)
        powers = [qn._term(1) for qn in chain]
        weights[start:terms] = [_sum_terms(q.field, powers[m - 1::m])
                                for m in range(start + 1, terms + 1)]
    return weights


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
    """a4 = -5 s_3(q) and a6, each summed with integer coefficients.  No Lambert
    weight is built here: the first series point builds those it needs."""
    _require_positive_valuation(q)
    a4 = _divisor_sum_series(q, lambda n: -5 * n ** 3)
    a6 = _divisor_sum_series(q, lambda n: -a6_coefficient(n))
    return TateCurve(q=q, a4=a4, a6=a6)


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


def _list_pass(field, ucoeffs, vcoeffs, su: int, weights: list, work: int,
               deriv: bool) -> tuple:
    """The coefficient vectors of the pass's X and Y sums and of Z, each
    piece at shift s taken modulo pi^(work - s), for u's unit vector
    ucoeffs and its inverse vcoeffs.  X takes the pieces u^-m w_m, u^m w_m
    and w_m times m, m and -2m, Y times -m(m+1)/2, m(m-1)/2 and m, and Z
    the first two times -m^2 and m^2."""
    p, e = field.p, field.e
    xs = ys = zs = zero = [0] * field.coeff_len
    upow = vpow = (1,) + (0,) * (field.coeff_len - 1)
    for m, w in enumerate(weights, 1):
        s = w.shift - m * su
        if s >= work:
            break
        mod = p ** _ceil_div(work - s, e)
        vcoeffs = [c % mod for c in vcoeffs]
        vpow = [c % mod for c in _vec_mul(field, vpow, vcoeffs)]
        wvec = [c % mod for c in w.coeffs]
        neg = _shift_vec(field, _vec_mul(field, vpow, wvec), s)
        pos = one = zero
        s = w.shift + m * su
        if s < work:
            mod = p ** _ceil_div(work - s, e)
            ucoeffs = [c % mod for c in ucoeffs]
            upow = [c % mod for c in _vec_mul(field, upow, ucoeffs)]
            pos = _shift_vec(field, _vec_mul(field, upow, wvec), s)
        if w.shift < work:
            one = _shift_vec(field, wvec, w.shift)
        lo, hi = m * (m - 1) // 2, m * (m + 1) // 2
        xs = [x + m * (a + b - 2 * c) for x, a, b, c in zip(xs, neg, pos, one)]
        ys = [y + lo * b - hi * a + m * c for y, a, b, c in zip(ys, neg, pos, one)]
        if deriv:
            zs = [z + m * m * (b - a) for z, a, b in zip(zs, neg, pos)]
    return xs, ys, zs


def _int_pass(field, ucoeffs, vcoeffs, su: int, weights: list, work: int,
              deriv: bool) -> tuple:
    """_list_pass over a field of one-entry vectors, e = 1 and pi = c p, on
    plain ints: the same pieces, reduced modulo the same powers of p, so
    the same three one-entry vectors."""
    p = field.p
    pi = field.eis_unit * p
    uc, vc = ucoeffs[0], vcoeffs[0]
    x = y = z = 0
    upow = vpow = 1
    for m, w in enumerate(weights, 1):
        sw = w.shift
        s = sw - m * su
        if s >= work:
            break
        mod = p ** (work - s)
        vc %= mod
        vpow = vpow * vc % mod
        wv = w.coeffs[0] % mod
        neg = vpow * wv * pi ** s
        pos = one = 0
        s = sw + m * su
        if s < work:
            mod = p ** (work - s)
            uc %= mod
            upow = upow * uc % mod
            pos = upow * wv * pi ** s
        if sw < work:
            one = wv * pi ** sw
        lo, hi = m * (m - 1) // 2, m * (m + 1) // 2
        x += m * (neg + pos - 2 * one)
        y += lo * pos - hi * neg + m * one
        if deriv:
            z += m * m * (pos - neg)
    return [x], [y], [z]


def _series_point(curve: TateCurve, u: PadicElement, slack: int, deriv: bool) -> list:
    """[X, Y], and X' with deriv, at a plain u in the fundamental domain:
    the guards, then P, P' and W, the one integer pass over the
    ceil(N / (v(q) - v(u))) weights, on ints over Q_p and on vectors
    otherwise, and each coordinate as one _sum_terms of its pass term and
    its principal part's term (module docstring)."""
    q = curve.q
    sq = q.shift
    if u.is_zero:
        raise ImpreciseValuation("u has no exact valuation")
    su = u.shift
    if not 0 <= su < sq:
        raise DomainError("u must be reduced to the fundamental domain first")
    target = q.abs_prec
    one_minus_u = 1 - u
    if one_minus_u.is_zero:
        raise OnKernel("u is indistinguishable from 1 at this precision")
    t = one_minus_u.shift
    if 3 * t > target - slack:
        raise InsufficientPrecision(
            f"principal part at v(1-u) = {one_minus_u.valuation()} exhausts the budget")
    u._check_same_field(q)
    field = q.field
    dmax = _ceil_div(target, sq - su)
    weights = _weights(q, curve.weights, dmax)[:dmax]
    prec = work = min(target, u.rel_prec + sq) - su
    if deriv:
        # u^2 - 1 = (u - 1)(u + 1) is a unit at su > 0; 1 + u's vector is
        # nonzero, as its first entry is a reduced coefficient plus 1
        g = 0 if su else min(u.abs_prec, t + _vec_val(field, [u.coeffs[0] + 1, *u.coeffs[1:]]))
        dprec = min(u.rel_prec + sq, target + g) - 2 * su
        work = max(prec, dprec + su)
    inverse = _vec_invert(field, u.coeffs, min(u.rel_prec, work))
    one_pass = _int_pass if field.coeff_len == 1 else _list_pass
    xs, ys, zs = one_pass(field, u.coeffs, inverse, su, weights, work, deriv)
    # the principal parts from I, the unit of (1-u)^-1, at the precisions of
    # the element chains (module docstring), a = abs_prec(u)
    a = u.abs_prec
    inv = _vec_invert(field, one_minus_u.coeffs, one_minus_u.rel_prec)
    inv2 = _vec_mul(field, inv, inv)
    ui2 = _vec_mul(field, u.coeffs, inv2)
    ui3 = _vec_mul(field, ui2, inv)
    terms = [(prec, 0, xs), (prec, 0, ys)]
    parts = [(a - 3 * t, su - 2 * t, ui2),
             (a - 4 * t + su, 2 * su - 3 * t, _vec_mul(field, u.coeffs, ui3))]
    if deriv:
        # X' - (u/(1-u)^2)' = u^-1 Z, and (1 + u) I^3 = I^3 + pi^su ui3,
        # with ui3 the vector of u's unit times I^3
        terms.append((dprec, -su, _vec_mul(field, inverse, zs)))
        cube, shifted = _vec_mul(field, inv2, inv), _shift_vec(field, ui3, su)
        parts.append((a - 4 * t, -3 * t, [c + d for c, d in zip(cube, shifted)]))
    return [_sum_terms(field, pair) for pair in zip(terms, parts)]


def tate_series_point(curve: TateCurve, u: PadicElement,
                      slack: int = DEFAULT_SLACK) -> tuple[PadicElement, PadicElement]:
    """(X(q,u), Y(q,u)) for u already reduced to the fundamental domain."""
    return tuple(_series_point(curve, u, slack, False))


def phi(curve: TateCurve, u: PadicElement, slack: int = DEFAULT_SLACK) -> TatePoint:
    """The uniformization map; q^Z lands on the identity."""
    if u.is_zero:
        raise ZeroElement("u must have a known nonzero digit or exact valuation")
    u_red, _ = reduce_to_fundamental(curve.q, u)
    if (u_red - 1).is_zero:
        return TatePoint.identity()
    x, y = tate_series_point(curve, u_red, slack=slack)
    return TatePoint.affine(x, y)


def _equation_residual(curve: TateCurve, point: TatePoint) -> PadicElement:
    if point.is_identity:
        raise ValueError("identity point has no affine residual")
    x, y = point.x, point.y
    return y * y + x * y - x * x * x - curve.a4 * x - curve.a6


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
    """Delta for b2 = 1, b4 = 2 a4, b6 = 4 a6, b8 = a6 - a4^2."""
    a4, a6 = curve.a4, curve.a6
    b4 = a4 * 2
    b6 = a6 * 4
    b8 = a6 - a4 * a4
    return -b8 - (b4 * b4 * b4) * 8 - (b6 * b6) * 27 + b4 * b6 * 9


def tate_xy_with_derivative(curve: TateCurve, u: PadicElement,
                            slack: int = DEFAULT_SLACK):
    """(X, Y, X') at u, X' = dX/du, from one integer pass (module docstring).

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


def relation_residual(curve: TateCurve, u: PadicElement,
                      slack: int = DEFAULT_SLACK) -> ValuationResult:
    """Valuation of u X' - X - 2Y."""
    x, y, xp = tate_xy_with_derivative(curve, u, slack=slack)
    return (u * xp - x - y * 2).valuation()


def verify_ode(curve: TateCurve, u: PadicElement,
               slack: int = DEFAULT_SLACK) -> ValuationResult:
    """Valuation of (u X')^2 - 4X^3 - X^2 - 4 a4 X - 4 a6 at u."""
    x, _, xp = tate_xy_with_derivative(curve, u, slack=slack)
    uxp = u * xp
    res = uxp * uxp - (x ** 3) * 4 - x * x - curve.a4 * x * 4 - curve.a6 * 4
    return res.valuation()
