"""Dual-number layer over field elements, for exact-to-precision derivatives.

A DualElement is value + deriv*eps with eps^2 = 0; every ring operation
satisfies the Leibniz rule by construction, so running an analytic
evaluator on DualElement(x, 1) returns the function value together with
its derivative at x.

A PadicElement, int or Fraction operand is a constant whose derivative is
exactly zero, not a zero known to some precision: d + c keeps d.deriv
unchanged and d * c has derivative d.deriv * c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import PadicElement, _binary_power

# operands whose derivative is exactly zero
_CONSTANT = (PadicElement, int, Fraction)


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

    def __add__(self, other):
        if isinstance(other, DualElement):
            return DualElement(self.value + other.value, self.deriv + other.deriv)
        if isinstance(other, _CONSTANT):
            return DualElement(self.value + other, self.deriv)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return DualElement(-self.value, -self.deriv)

    def __sub__(self, other):
        if isinstance(other, DualElement):
            return DualElement(self.value - other.value, self.deriv - other.deriv)
        if isinstance(other, _CONSTANT):
            return DualElement(self.value - other, self.deriv)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, DualElement):
            v1, d1, v2, d2 = self.value, self.deriv, other.value, other.deriv
            return DualElement(v1 * v2, v1 * d2 + d1 * v2)
        if isinstance(other, _CONSTANT):
            return DualElement(self.value * other, self.deriv * other)
        return NotImplemented

    __rmul__ = __mul__

    def invert(self) -> "DualElement":
        iv = self.value.invert()
        return DualElement(iv, -(self.deriv * iv * iv))

    def __truediv__(self, other):
        if isinstance(other, DualElement):
            return self.__mul__(other.invert())
        if isinstance(other, _CONSTANT):
            return DualElement(self.value / other, self.deriv / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONSTANT):
            return self.invert().__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return DualElement.constant(self.value ** 0)
        return _binary_power(self, n)
