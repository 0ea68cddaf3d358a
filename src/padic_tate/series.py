"""The p-adic exponential and logarithm with rigorous truncation bounds.

exp converges on the open ball of valuative radius 1/(p-1) around 0 and maps
it bijectively onto 1 + that ball; log is its inverse there.  Term counts are
closed forms: exp stops at Legendre's bound v_p(n!) <= (n-1)/(p-1), and log at
its exact last term below the precision, term n having shift n*v - e*v_p(n)
for v = v(y-1) in pi-units.  A precision shortfall raises instead of degrading.

Both series run one recurrence, term n = term n-1 * t * num(n)/n: exp from 1
with t = x and num(n) = 1, log from t = y - 1 with num(n) = 1 - n.  A term is
a raw vector modulo M = p^K, K = ceil(rel/e) + 1, at a shift, and
field._sum_terms adds the terms at one shift with one _make.  With num(n)/n =
p^w * a/b, a and b prime to p (field._split_rational), and p^w =
pi^(e*w) * c^-w as pi^e = c*p, a term adds e*w to the shift and takes each
entry x of the product to x * a modulo M, divides that exactly by the small
integer b, and, only for w != 0 and c != 1, multiplies by c^-w modulo M.
The division forms no inverse modulo M: with y = -x/M modulo b, x + y*M is a
multiple of b in [0, b*M), so its quotient by b is the residue of x/b in
[0, M).  So each entry is the residue in [0, M) of x times the unit
a/b * c^-w, the one that multiplying by that unit reduced modulo M gives,
with small-integer steps in place of a K-digit product.  Every step keeps
the relative precision rel, so a term is known to its shift + rel and the
sum to the least of these (on the ball, the argument's own).  The units
multiply, so a raw vector is the exact term modulo p^K = pi^(eK), past rel,
and the digits are the term-by-term loop's.  A dual argument takes the same
path for its value and its derivative from the chain rule, exp(x)' =
exp(x) x' and log(y)' = y'/y.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Union

from .dual import DualElement
from .errors import OutsideConvergenceDomain
from .field import PadicElement, _ceil_div, _split_rational, _sum_terms, _vec_mul

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
    first = (x.abs_prec, 0, (1,) + (0,) * (x.field.coeff_len - 1))
    return _sum_terms(x.field, _terms(x, first, 1, T, x.rel_prec, lambda n: 1))


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
    first = (t.abs_prec, t.shift, t.coeffs)
    return _sum_terms(t.field, _terms(t, first, 2, T, t.rel_prec, lambda n: 1 - n))


def _terms(t: PadicElement, first: tuple, n0: int, T: int, rel: int, num: Callable[[int], int]):
    """The (prec, shift, vec) terms of a series: the given first term, then
    for n = n0..T term n = term n-1 * t * num(n)/n, each at relative
    precision rel; c^-w is taken once per w."""
    field, (prec, shift, vec) = t.field, first
    mod = field.p ** (_ceil_div(rel, field.e) + 1)
    c, cpow = field.eis_unit, {}
    yield prec, shift, vec
    for n in range(n0, T + 1):
        w, a, b = _split_rational(field.p, num(n), n)
        vec = [x * a % mod for x in _vec_mul(field, vec, t.coeffs)]
        if b != 1:
            r = pow(mod, -1, b)
            vec = [(x + (-x * r) % b * mod) // b for x in vec]
        if w and c != 1:
            if w not in cpow:
                cpow[w] = pow(c, -w, mod)
            vec = [x * cpow[w] % mod for x in vec]
        shift += t.shift + field.e * w
        yield shift + rel, shift, vec

