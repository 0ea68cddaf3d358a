"""The p-adic exponential and logarithm with rigorous truncation bounds.

exp converges on the open ball of valuative radius 1/(p-1) around 0 and maps
it bijectively onto 1 + that ball; log is its inverse there.  Term counts are
closed forms: exp stops at Legendre's bound v_p(n!) <= (n-1)/(p-1), and log at
its exact last term below the precision, term n having shift n*v - e*v_p(n)
for v = v(y-1) in pi-units.  A precision shortfall raises instead of degrading.

Both series are hypergeometric: a sum over k <= T of d_k t^k with d_0 = 1 and
d_k = d_(k-1) a(k)/b(k).  exp is one with t = x, a(k) = 1 and b(k) = k; log
is t times one with t = y - 1, a(k) = -k and b(k) = k + 1, its T one less
than the last term's index.  Its third caller is the Tate curve's power
series sum_n A_n q^n for a4, a6 and s_k (tate._divisor_sum_series), which is
A_1 q times one with t = q, a(k) = A_(k+1) and b(k) = A_k.
_hypergeometric sums each by rectangular splitting
(Paterson and Stockmeyer, SIAM J. Comput. 2, 1973, in D. M. Smith's
concurrent-summation form, ACM TOMS 15, 1989).  With m = isqrt(T + 1), the
powers t^0..t^m cost m - 1 full products.  Block j holds terms jm..jm+L-1
(L = m except in the last block) and is d_jm t^jm A_j / P_j, where

    A_j = sum_{i<L} t^i * prod_{l=1..i} a(jm+l) * prod_{l=i+1..L-1} b(jm+l),
    P_j = prod_{l=1..L-1} b(jm+l),

so A_j is a sum of integer multiples of the powers, the integers about
m*log(T) bits long.  The blocks are joined by Horner's rule in t^m.  The tail
R_j = sum_{k>=jm} (d_k/d_jm) t^(k-jm) satisfies

    R_j = (A_j + t^m * R_(j+1) * N_j / b(jm+m)) / P_j,  N_j = prod_{l=1..m} a(jm+l),

one full product per link, and the sum is R_0.  A series thus makes
(m - 1) + (blocks - 1) full products, and log one more for its factor t,
where the term-by-term sum made one per term.

The precision argument.  t enters as the integer coefficient vector of the
argument's own representative pi^s * coeffs, s its shift, and every vector
is taken modulo one power M = p^W.  An element of pi^n O has a vector
divisible by p^floor(n/e), and an element of O an integral vector.  Let
V(k) = k*s + e*v_p(d_k) be term k's pi-valuation.  A tail need not be
integral: its term k, d_k t^k / (d_jm t^jm), has valuation V(k) - V(jm),
which the p-parts of the b(l) can make negative.  So the loop carries
p^G R_j, with G = max_j ceil((V(jm) - min_{k>=jm} V(k))/e), which makes every
term of every tail, times p^G, integral; so are the block sums and links
that are made of them.  Each unit part u of a divisor is divided as
x -> (x + ((-x*r) mod u)*M) // u with r = M^-1 mod u, x/u modulo M with no
inverse modulo M, and each p-part by an exact floor division.

Let D_j count the digits by which the computed p^G R_j falls short of W.
The last block is exact up to its division, so D_last = v_p(P_last).  A
link multiplies p^G R_(j+1) by t^m, in pi^(m*s) O, which gains floor(m*s/e)
digits, but no more than the W that the reduction modulo M keeps.  Then
N_j / b(jm+m) = p^w u_j gains w more, again capped at W, or for w < 0 loses
-w by an exact division.  Adding A_j, exact modulo M, loses nothing, and
dividing by P_j loses v_p(P_j).  So

    D_j = max(0, max(0, D_(j+1) - floor(m*s/e)) - w) + v_p(P_j).

The product by t^m is reduced modulo M before the link's p^w reaches it, so
its cap comes first; capping only after both would overstate what is known.
A division by p^k is exact when the computed vector agrees with the true
one, which p^k divides, to k digits or more; at link j that needs
W >= D_j.  So W = ceil(prec/e) + G + max_j D_j makes every division exact
and leaves p^G R_0 known modulo p^(ceil(prec/e) + G).  R_0 is integral, as
V(k) >= V(0) = 0 on the ball, so the division by p^G is exact too, and R_0
is known modulo p^ceil(prec/e), so modulo pi^prec.  For the Tate series,
V(k) = k v(q) + e (v_p(A_(k+1)) - v_p(A_1)) >= 0 as each d_k = A_(k+1)/A_1
is an integer: A_1 is 1 for s_k and -1 for a6, and -5 for a4, where 5
divides every A_n.  exp takes prec = abs_prec(x); log and the Tate series
take prec = rel_prec(t) and then multiply by t's unit at t's shift, the
Tate series by A_1 too.  So each result is the truncated series of the
argument's representative, exact modulo the argument's abs_prec, and one
_sum_terms term, reduced by one _make, gives the digits and the precision of
the term-by-term sum.  A dual argument takes the same path for its value and
its derivative from the chain rule, exp(x)' = exp(x) x' and log(y)' = y'/y.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import isqrt
from operator import mul
from typing import Sequence, Union

from .dual import DualElement
from .errors import OutsideConvergenceDomain
from .field import (PadicElement, _ceil_div, _shift_vec, _split_rational, _sum_terms, _vec_mul,
                    _vp)

Evaluable = Union[PadicElement, DualElement]


def _exp_truncation(shift: int, e: int, p: int, target: int) -> int:
    """Least T >= 1 past which Legendre's v_p(n!) <= (n-1)/(p-1) puts every
    term x^n/n! at shift >= target.

    Term T+1 is there once T*(shift*(p-1) - e) >= (target - shift)*(p-1), and
    every later one with it, as that factor is positive on the domain.
    """
    return max(1, _ceil_div((target - shift) * (p - 1), shift * (p - 1) - e))


def _log_truncation(shift: int, e: int, p: int, target: int) -> int:
    """The last n, or 1, whose term t^n/n has shift n*shift - e*v_p(n) < target.

    Such an n with v_p(n) >= k is a multiple of p^k below (target + e*k)/shift.
    The k that have one, p^k*shift < target + e*k, run up from 0, since
    p^k*shift - e*k increases in k on the domain shift*(p-1) > e.
    """
    T, k = 1, 0
    while p ** k * shift < target + e * k:
        last = _ceil_div(target + e * k, shift) - 1
        T, k = max(T, last - last % p ** k), k + 1
    return T


def _check_ball(t: PadicElement, zero: str, v: str) -> None:
    """Raise unless v(t) > 1/(p-1), tested as shift*(p-1) > e (abs_prec for
    an imprecise zero); zero and v name t in the two messages."""
    p, e = t.field.p, t.field.e
    if t.is_zero:
        if t.abs_prec * (p - 1) <= e:
            raise OutsideConvergenceDomain(
                f"{zero} is an imprecise zero whose bound does not clear 1/(p-1)")
    elif t.shift * (p - 1) <= e:
        raise OutsideConvergenceDomain(
            f"v({v}) = {Fraction(t.shift, e)} is not > 1/(p-1) = {Fraction(1, p - 1)}")


def p_exp(x: Evaluable) -> Evaluable:
    """exp(x) = sum x^n / n! on the domain v(x) > 1/(p-1).

    Given a dual number (x, x'), returns (exp(x), exp(x) x') by the chain rule.
    """
    if isinstance(x, DualElement):
        v = p_exp(x.value)
        return DualElement(v, v * x.deriv)
    _check_ball(x, "argument", "x")
    if x.is_zero:
        return PadicElement.one(x.field, x.abs_prec)
    T = _exp_truncation(x.shift, x.field.e, x.field.p, x.abs_prec)
    vec = _hypergeometric(x, [1] * T, range(1, T + 1), x.abs_prec)
    return _sum_terms(x.field, [(x.abs_prec, 0, vec)])


def p_log(y: Evaluable) -> Evaluable:
    """log(y) = sum (-1)^(n+1) (y-1)^n / n for v(y-1) > 1/(p-1).

    Given a dual number (y, y'), returns (log(y), y'/y) by the chain rule.
    """
    if isinstance(y, DualElement):
        return DualElement(p_log(y.value), y.deriv / y.value)
    t = y - 1
    _check_ball(t, "y - 1", "y-1")
    if t.is_zero:
        return PadicElement.zero(t.field, t.abs_prec)
    T = _log_truncation(t.shift, t.field.e, t.field.p, t.abs_prec)
    vec = _vec_mul(t.field, t.coeffs,
                   _hypergeometric(t, range(-1, -T, -1), range(2, T + 1), t.rel_prec))
    return _sum_terms(t.field, [(t.abs_prec, t.shift, vec)])


def _hypergeometric(t: PadicElement, num: Sequence[int], den: Sequence[int],
                    prec: int) -> list[int]:
    """The integer vector of sum_{k<=T} d_k t^k, exact modulo p^ceil(prec/e),
    for d_0 = 1, d_k = d_(k-1) a(k)/b(k), a(k) = num[k-1], b(k) = den[k-1]
    and T = len(num): t is the representative pi^shift * coeffs, and the sum
    is taken by rectangular splitting at the working precision of the module
    docstring."""
    field = t.field
    p, e, s = field.p, field.e, t.shift
    T = len(num)
    m = isqrt(T + 1)
    gain = m * s // e
    V = list(accumulate([s + e * (_vp(x, p) - _vp(y, p)) for x, y in zip(num, den)], initial=0))
    # from the last block to the first: G, with low the least V(k) for
    # k >= jm; block j's integers alphas of A_j; P_j = p^v * u; the link
    # N_j / b(jm+m) = p^w * na/nb, (0, 1, 1) for the last block; and D_j
    blocks, low, G, lost, most = [], V[-1], 0, 0, 0
    for j in reversed(range(0, T + 1, m)):
        low = min(low, *V[j:j + m])
        G = max(G, _ceil_div(V[j] - low, e))
        alphas, P = list(accumulate(num[j:j + m - 1], mul, initial=1)), 1
        for i in range(len(alphas) - 1, 0, -1):
            P *= den[j + i - 1]
            alphas[i - 1] *= P
        v, u, _ = _split_rational(p, P, 1)
        link = (_split_rational(p, alphas[-1] * num[j + m - 1], den[j + m - 1])
                if j + m <= T else (0, 1, 1))
        lost = max(0, max(0, lost - gain) - link[0]) + v
        most = max(most, lost)
        blocks.append((alphas, v, u, link))
    W = _ceil_div(prec, e) + G + most
    M, pG = p ** W, p ** G
    powers = [(1,) + (0,) * (field.coeff_len - 1), [c % M for c in _shift_vec(field, t.coeffs, s)]]
    for _ in range(m - 1):
        powers.append([c % M for c in _vec_mul(field, powers[-1], powers[1])])
    cols = list(zip(*powers[:m]))
    r = None
    for alphas, v, u, link in blocks:
        acc = [pG * sum(map(mul, alphas, col)) for col in cols]
        if r is not None:
            w, na, nb = link
            x = _vec_mul(field, powers[m], r)
            if w < 0:
                x = [c // p ** -w for c in x]
            else:
                na *= p ** w
            acc = [nb * y + na * z for y, z in zip(acc, x)]
            u *= nb
        inv, pv = pow(M, -1, u), p ** v
        r = [(y + (-y * inv) % u * M) // u // pv for y in [y % M for y in acc]]
    return [c // pG for c in r]
