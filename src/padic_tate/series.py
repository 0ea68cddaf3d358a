"""The p-adic exponential and logarithm with rigorous truncation bounds.

exp converges on the open ball of valuative radius 1/(p-1) around 0 and maps
it bijectively onto 1 + that ball; log is its inverse there.  Truncation
indices are derived from exact valuation lower bounds on the series tails,
never from heuristics; a precision shortfall raises instead of degrading.

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
    """Smallest T with n*shift - e*v_p(n!) >= target for every n > T.

    Valid because the per-term lower bound n*shift - e*(n-1)/(p-1) is
    strictly increasing on the convergence domain shift/e > 1/(p-1); the
    bound at n + 1 is compared after multiplying through by p - 1.
    """
    n = 1
    while ((n + 1) * shift - target) * (p - 1) < e * n:
        n += 1
    return n


def _log_truncation(shift: int, e: int, p: int, target: int) -> int:
    """Smallest T with n*shift - e*v_p(n) >= target for every n > T.

    The bound phi(n) = n*shift - e*floor(log_p n) increases between powers
    of p and can dip only at them, so the tail is certified by checking
    phi(T+1) together with phi at every power of p beyond T (the values at
    powers are eventually increasing, so finitely many checks suffice).
    """
    def phi(n: int) -> int:
        L = 0
        while p ** (L + 1) <= n:
            L += 1
        return n * shift - e * L

    def tail_ok(n0: int) -> bool:
        if phi(n0 + 1) < target:
            return False
        k = 1
        while p ** k <= n0:
            k += 1
        while True:
            val = (p ** k) * shift - e * k
            if val < target:
                return False
            # increasing from here on: p^k(p-1)*shift > e
            if (p ** k) * (p - 1) * shift > e:
                return True
            k += 1

    n0 = 1
    while not tail_ok(n0):
        n0 += 1
    return n0


def p_exp(x: Evaluable) -> Evaluable:
    """exp(x) = sum x^n / n! on the domain v(x) > 1/(p-1).

    Given a dual number (x, x'), returns (exp(x), exp(x) x') by the chain rule.
    """
    if isinstance(x, DualElement):
        v = p_exp(x.value)
        return DualElement(v, v * x.deriv)
    field = x.field
    p, e = field.p, field.e
    # v = shift/e > 1/(p-1), tested as shift*(p-1) > e
    if x.is_zero:
        if x.abs_prec * (p - 1) > e:
            return PadicElement.one(field, x.abs_prec)
        raise OutsideConvergenceDomain(
            "argument is an imprecise zero whose bound does not clear 1/(p-1)")
    if x.shift * (p - 1) <= e:
        raise OutsideConvergenceDomain(
            f"v(x) = {Fraction(x.shift, e)} is not > 1/(p-1) = {Fraction(1, p - 1)}")
    T = _exp_truncation(x.shift, e, p, x.abs_prec)
    return _sum_terms(field, _exp_terms(x, T))


def p_log(y: Evaluable) -> Evaluable:
    """log(y) = sum (-1)^(n+1) (y-1)^n / n for v(y-1) > 1/(p-1).

    Given a dual number (y, y'), returns (log(y), y'/y) by the chain rule.
    """
    if isinstance(y, DualElement):
        return DualElement(p_log(y.value), y.deriv / y.value)
    field = y.field
    p, e = field.p, field.e
    t = y - 1
    if t.is_zero:
        if t.abs_prec * (p - 1) > e:
            return PadicElement.zero(field, t.abs_prec)
        raise OutsideConvergenceDomain(
            "y - 1 is an imprecise zero whose bound does not clear 1/(p-1)")
    if t.shift * (p - 1) <= e:
        raise OutsideConvergenceDomain(
            f"v(y-1) = {Fraction(t.shift, e)} is not > 1/(p-1) = {Fraction(1, p - 1)}")
    T = _log_truncation(t.shift, e, p, t.abs_prec)
    return _sum_terms(field, _log_terms(t, T))


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
