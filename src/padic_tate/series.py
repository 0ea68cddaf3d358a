"""The p-adic exponential and logarithm with rigorous truncation bounds.

exp converges on the open ball of valuative radius 1/(p-1) around 0 and maps
it bijectively onto 1 + that ball; log is its inverse there.  Term counts are
closed forms: exp stops at Legendre's bound v_p(n!) <= (n-1)/(p-1), and log at
its exact last term below the precision, term n having shift n*v - e*v_p(n)
for v = v(y-1) in pi-units.  A precision shortfall raises instead of degrading.

Each series is reduced once, not once per term.  A term is a raw unit
vector, taken modulo one p^K with K = ceil(rel/e) + 1, at a shift: exp steps
it by x's unit and the unit part of 1/n, log keeps t^n as a running product
and scales each term by the unit part of +-1/n apart from it; the unit and
shift of +-1/n come from field._rational_unit, as in _scale_rational.  The
terms are added one at a time at a common shift by field._sum_terms, the
aligned sum behind every field sum, and normalised by one _make.  The
precision is tracked as the term-by-term loop tracks it: every product and
scaling keeps the relative precision, and the sum is known to the least term
precision (on the ball this is the argument's own).  Each term is exact modulo its own
precision, at least the final one, so the raw sum agrees with the loop's
modulo pi^final and the canonical digits are the loop's.  A dual argument
takes the same path for its value and its derivative from the chain rule,
exp(x)' = exp(x) x' and log(y)' = y'/y.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Union

from .dual import DualElement
from .errors import OutsideConvergenceDomain
from .field import PadicElement, _ceil_div, _rational_unit, _sum_terms, _vec_mul

Evaluable = Union[PadicElement, DualElement]


def factorial_valuation(n: int, p: int) -> Fraction:
    """v_p(n!) = (n - s_p(n)) / (p - 1) by Legendre's formula."""
    if n < 0:
        raise ValueError("n must be >= 0")
    digit_sum = 0
    m = n
    while m:
        digit_sum += m % p
        m //= p
    return Fraction(n - digit_sum, p - 1)


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
    return _sum_terms(x.field, _exp_terms(x, T))


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
    return _sum_terms(t.field, _log_terms(t, T))


def _exp_terms(x: PadicElement, T: int):
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


def _log_terms(t: PadicElement, T: int):
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


def dual_eval(f: Callable[[DualElement], DualElement], x: PadicElement) -> DualElement:
    """Run an analytic evaluator over dual arithmetic seeded with (x, 1)."""
    return f(DualElement.seed(x))
