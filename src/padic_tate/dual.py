"""Dual-number layer over field elements, for exact-to-precision derivatives.

A DualElement is value + deriv*eps with eps^2 = 0; every ring operation
satisfies the Leibniz rule by construction, so running an analytic
evaluator on DualElement(x, 1) returns the function value together with
its derivative at x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import PadicElement, _binary_power, _coerce


def _value_part(x: PadicElement | DualElement) -> PadicElement:
    return x.value if isinstance(x, DualElement) else x


@dataclass(frozen=True)
class DualElement:
    value: PadicElement
    deriv: PadicElement

    @staticmethod
    def seed(x: PadicElement) -> "DualElement":
        """The differentiation seed (x, 1)."""
        return DualElement(x, PadicElement.one(x.field, x.abs_prec))

    @staticmethod
    def constant(x: PadicElement) -> "DualElement":
        return DualElement(x, PadicElement.zero(x.field, x.abs_prec))

    def _lift(self, other) -> "DualElement":
        if isinstance(other, DualElement):
            return other
        other = _coerce(self.value, other)
        if other is NotImplemented:
            return NotImplemented
        return DualElement.constant(other)

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return DualElement(self.value + o.value, self.deriv + o.deriv)

    __radd__ = __add__

    def __neg__(self):
        return DualElement(-self.value, -self.deriv)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return DualElement(self.value - o.value, self.deriv - o.deriv)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DualElement(self.value * other, self.deriv * other)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return DualElement(self.value * o.value,
                           self.value * o.deriv + self.deriv * o.value)

    __rmul__ = __mul__

    def invert(self) -> "DualElement":
        iv = self.value.invert()
        return DualElement(iv, -(self.deriv * iv * iv))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return DualElement(self.value / other, self.deriv / other)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__mul__(o.invert())

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__mul__(self.invert())

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            one = PadicElement.one(self.value.field, self.value.rel_prec)
            return DualElement.constant(one)
        return _binary_power(self, n)
