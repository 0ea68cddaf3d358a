"""The p-adic exponential and logarithm with rigorous truncation bounds.

exp converges on the open ball of valuative radius 1/(p-1) around 0 and maps
it bijectively onto 1 + that ball; log is its inverse there.  Truncation
indices are derived from exact valuation lower bounds on the series tails,
never from heuristics; a precision shortfall raises instead of degrading.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Union

from .dual import DualElement, _value_part
from .errors import OutsideConvergenceDomain
from .field import PadicElement

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

    Given a dual number, evaluates the whole series over dual arithmetic and
    returns (exp(x), exp'(x)).
    """
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


def p_log(y: Evaluable) -> Evaluable:
    """log(y) = sum (-1)^(n+1) (y-1)^n / n for v(y-1) > 1/(p-1)."""
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


def dual_eval(f: Callable[[DualElement], DualElement], x: PadicElement) -> DualElement:
    """Run an analytic evaluator over dual arithmetic seeded with (x, 1)."""
    return f(DualElement.seed(x))
