"""Ball combinatorics: balls lambda-next to a finite set and the same-ball test.

For a finite set C and lambda >= 0 in the value group, the ball lambda-next
to C containing x is the open ball around x of radius max_c v(x-c) + lambda;
these balls partition the complement of C, and x, y share one exactly when
v(x-y) > lambda + v(x-c) for every c in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ImpreciseDistance, MemberOfC
from .field import PadicElement, Rational, _lambda_digits


@dataclass(frozen=True, eq=False)
class Ball:
    """Open ball {x : v(x - center) > lambda_radius}; centers are not canonical."""

    center: PadicElement
    lambda_radius: Fraction

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ball):
            return NotImplemented
        if self.lambda_radius != other.lambda_radius:
            return False
        return _beyond(self.center - other.center, self.lambda_radius)

    def __str__(self) -> str:
        return f"B_>{self.lambda_radius}({self.center})"


def _beyond(d: PadicElement, radius: Rational) -> bool:
    """v(d) > radius for certain; an imprecise zero's shift is its bound abs_prec."""
    return d.shift * radius.denominator > radius.numerator * d.field.e


def _exact_distance(x: PadicElement, c: PadicElement) -> int:
    """v(x - c) in pi-units; raises when x - c is an imprecise zero."""
    d = x - c
    if d.is_zero:
        raise MemberOfC("point is indistinguishable from a member of C "
                        f"(v >= {d.valuation().value})")
    return d.shift


def ball_next(C: Sequence[PadicElement], lam: Rational, x: PadicElement) -> Ball:
    """The ball lambda-next to C containing x: radius max_c v(x-c) + lambda."""
    if not C:
        raise ValueError("C must be a non-empty finite set")
    e = x.field.e
    radius = _lambda_digits(lam, e) + max(_exact_distance(x, c) for c in C)
    return Ball(center=x, lambda_radius=Fraction(radius, e))


def same_ball(C: Sequence[PadicElement], lam: Rational,
              x: PadicElement, y: PadicElement) -> bool:
    """True iff v(x-y) > lambda + v(x-c) for every c in C."""
    if not C:
        raise ValueError("C must be a non-empty finite set")
    e = x.field.e
    lam_digits = _lambda_digits(lam, e)
    dxy = x - y
    for c in C:
        bound = lam_digits + _exact_distance(x, c)
        if dxy.shift > bound:
            continue
        if not dxy.is_zero:
            return False
        raise ImpreciseDistance(
            f"v(x-y) >= {dxy.valuation().value} cannot be compared with {Fraction(bound, e)}")
    return True

