"""Cross-validation of extension arithmetic against exact rational models.

The models compute in Q[pi]/(pi^e - c p) and Q[g]/(defining poly) with
Fraction coefficients, entirely independently of the digit-vector kernel,
then both sides are compared after reduction to finite precision.
"""

from fractions import Fraction

import pytest

from padic_tate.field import PadicElement, make_field
from padic_tate.prng import stream
from padic_tate.tate import (
    curve_add,
    curve_coefficients,
    curve_equation_residual,
    phi,
    point_difference_valuation,
    verify_ode,
)

from oracles import vp_int


def vp_fraction(x: Fraction, p: int) -> Fraction:
    return Fraction(vp_int(x.numerator, p) - vp_int(x.denominator, p))


class EisensteinModel:
    """Q[pi]/(pi^e - c p) with exact rational vectors."""

    def __init__(self, p, e, c):
        self.p, self.e, self.c = p, e, c

    def mul(self, a, b):
        conv = [Fraction(0)] * (2 * self.e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for idx in range(2 * self.e - 2, self.e - 1, -1):
            if conv[idx]:
                conv[idx - self.e] += conv[idx] * self.c * self.p
                conv[idx] = 0
        return conv[: self.e]

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def valuation(self, a):
        # the e candidate valuations are distinct mod 1, so the min is exact
        vals = [vp_fraction(x, self.p) + Fraction(i, self.e)
                for i, x in enumerate(a) if x]
        return min(vals) if vals else None

    def to_element(self, field, a, prec):
        out = PadicElement.zero(field, prec)
        for i, x in enumerate(a):
            if x == 0:
                continue
            term = PadicElement.from_rational(field, x, prec + self.e + i)
            if i:
                term = term * PadicElement.uniformizer(field, prec + self.e + i, power=i)
            out = out + term
        return out.truncate(prec)


def random_model_vector(rng, p, e):
    # p-power scales up to p^3 make the pi-shifts of two entries, and of two
    # vectors, differ by more than e
    def rand_fraction():
        num = rng.randint(-50, 50)
        den = rng.choice([1, 1, 2, 3, 7])
        scale = p ** rng.choice([0, 0, 0, 1, 2, 3])
        return Fraction(num, den) * scale
    vec = [rand_fraction() for _ in range(e)]
    if all(x == 0 for x in vec):
        vec[0] = Fraction(1)
    return vec


class TestEisensteinAgainstModel:
    # e = 1 is the field where pi = c*p itself; c != +-1 needs c^-1 mod p^k
    @pytest.mark.parametrize("p, e, c", [(5, 4, -1), (2, 3, 3), (3, 1, 2)],
                             ids=["p5-e4-c-1", "p2-e3-c3", "p3-e1-c2"])
    def test_ring_operations_match(self, p, e, c):
        field = make_field(p, "eisenstein", e=e, c=c)
        model = EisensteinModel(p, e, c)
        prec = 28
        for i in range(60):
            rng = stream(111, "model", i)
            a = random_model_vector(rng, p, e)
            b = random_model_vector(rng, p, e)
            ea = model.to_element(field, a, prec)
            eb = model.to_element(field, b, prec)
            assert ea.is_indistinguishable(model.to_element(field, a, prec))
            for x in (ea, eb):
                if not x.is_zero:
                    digits = x.pi_digits(x.rel_prec)
                    assert PadicElement.from_pi_digits(field, x.shift, digits,
                                                       x.abs_prec) == x
            got_sum = ea + eb
            want_sum = model.to_element(field, model.add(a, b), prec)
            assert got_sum.truncate(want_sum.abs_prec) \
                .is_indistinguishable(want_sum.truncate(got_sum.abs_prec))
            got_prod = ea * eb
            want_prod = model.to_element(field, model.mul(a, b), prec)
            cmp_prec = min(got_prod.abs_prec, want_prod.abs_prec)
            assert got_prod.truncate(cmp_prec) \
                .is_indistinguishable(want_prod.truncate(cmp_prec))
            # a denominator carrying p twists the unit by c^-w, w = v_p(r) < 0
            r = Fraction(rng.choice([1, -3, 7, 10]), p ** rng.randint(1, 3) * rng.choice([1, 7]))
            got_scaled = ea * r
            want_scaled = model.to_element(field, [x * r for x in a], prec)
            cmp_prec = min(got_scaled.abs_prec, want_scaled.abs_prec)
            assert got_scaled.truncate(cmp_prec) \
                .is_indistinguishable(want_scaled.truncate(cmp_prec))

    def test_valuations_match(self):
        field = make_field(5, "eisenstein", e=4, c=-1)
        model = EisensteinModel(5, 4, -1)
        for i in range(80):
            rng = stream(113, "modelval", i)
            a = random_model_vector(rng, 5, 4)
            want = model.valuation(a)
            got = model.to_element(field, a, 28).valuation()
            if want is not None and want < 25:
                assert got.is_exact and got.value == want, (a, got, want)

    def test_inversion_against_model_product(self):
        field = make_field(5, "eisenstein", e=4, c=-1)
        model = EisensteinModel(5, 4, -1)
        for i in range(30):
            rng = stream(127, "modelinv", i)
            a = random_model_vector(rng, 5, 4)
            ea = model.to_element(field, a, 28)
            if ea.is_zero:
                continue
            inv = ea.invert()
            assert (ea * inv - 1).is_zero


class UnramifiedModel:
    """Q[g]/(poly) with exact rational vectors."""

    def __init__(self, p, poly):
        self.p = p
        self.poly = poly
        self.f = len(poly) - 1

    def mul(self, a, b):
        conv = [Fraction(0)] * (2 * self.f - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for idx in range(2 * self.f - 2, self.f - 1, -1):
            cval = conv[idx]
            if cval:
                conv[idx] = Fraction(0)
                for j in range(self.f):
                    conv[idx - self.f + j] -= cval * self.poly[j]
        return conv[: self.f]

    def valuation(self, a):
        vals = [vp_fraction(x, self.p) for x in a if x]
        return min(vals) if vals else None

    def to_element(self, field, a, prec):
        gen = PadicElement.from_pi_digits(
            field, 0, [tuple([0, 1] + [0] * (field.f - 2))], prec + 4)
        out = PadicElement.zero(field, prec)
        for i, x in enumerate(a):
            if x == 0:
                continue
            term = PadicElement.from_rational(field, x, prec + 4)
            if i:
                term = term * gen ** i
            out = out + term
        return out.truncate(prec)


class TestUnramifiedAgainstModel:
    def test_ring_operations_and_valuation(self):
        field = make_field(3, "unramified", poly=[1, 2, 0, 1])
        model = UnramifiedModel(3, [1, 2, 0, 1])
        prec = 20
        for i in range(60):
            rng = stream(131, "umodel", i)
            a = [Fraction(rng.randint(-40, 40), rng.choice([1, 2, 7])) *
                 rng.choice([1, 1, 3, 9]) for _ in range(3)]
            b = [Fraction(rng.randint(-40, 40), rng.choice([1, 2, 7])) *
                 rng.choice([1, 1, 3, 9]) for _ in range(3)]
            if all(x == 0 for x in a):
                a[0] = Fraction(1)
            if all(x == 0 for x in b):
                b[0] = Fraction(1)
            ea = model.to_element(field, a, prec)
            eb = model.to_element(field, b, prec)
            got = ea * eb
            want = model.to_element(field, model.mul(a, b), prec)
            cmp_prec = min(got.abs_prec, want.abs_prec)
            assert got.truncate(cmp_prec).is_indistinguishable(want.truncate(cmp_prec))
            vw = model.valuation(a)
            if vw is not None and vw < 16:
                va = ea.valuation()
                assert va.is_exact and va.value == vw


class TestTateOverUnramified:
    def test_homomorphism_with_residue_generator(self, U22):
        # q = 4 in the quadratic unramified extension of Q_2; samples carry
        # genuine residue-generator components
        q = PadicElement.from_int(U22, 4, 50)
        curve = curve_coefficients(q)
        g = PadicElement.from_pi_digits(U22, 0, [(0, 1)], 50)
        u1 = g + 2                      # unit with residue g
        u2 = g * g + 4                  # unit with residue g^2 = g + 1
        P1, P2 = phi(curve, u1), phi(curve, u2)
        assert curve_equation_residual(curve, P1).at_least(Fraction(35))
        P12 = phi(curve, u1 * u2)
        total = curve_add(curve, P1, P2)
        assert point_difference_valuation(P12, total).at_least(Fraction(35))
        assert verify_ode(curve, u1).at_least(Fraction(35))
