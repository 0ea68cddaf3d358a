from fractions import Fraction

import pytest

from padic_tate.errors import (
    CoefficientOutsideValuationRing,
    DegreeCapExceeded,
    NotRegular,
)
from padic_tate.field import PadicElement, ValuationResult
from padic_tate.weierstrass import (
    StrictSeries,
    gauss_valuation,
    regular_degree,
    weierstrass_divide,
    weierstrass_prepare,
)


def build(field, nvars, terms, cap=8, prec=12):
    converted = {expo: PadicElement.from_rational(field, Fraction(c), prec)
                 for expo, c in terms.items()}
    return StrictSeries.build(nvars, field, converted, cap, prec)


class TestSeriesBasics:
    def test_gauss_valuation_constant(self, Q5):
        assert gauss_valuation(build(Q5, 1, {(0,): 1})) == \
            ValuationResult("exact", Fraction(0))

    def test_gauss_valuation_min(self, Q5):
        f = build(Q5, 2, {(1, 0): 5, (0, 0): 25})
        assert gauss_valuation(f) == ValuationResult("exact", Fraction(1))

    def test_gauss_valuation_zero_series(self, Q5):
        z = StrictSeries.zero(2, Q5, 8, 9)
        assert gauss_valuation(z) == ValuationResult("at_least", Fraction(9))

    def test_valuation_ring_enforced(self, Q5):
        with pytest.raises(CoefficientOutsideValuationRing):
            build(Q5, 1, {(0,): Fraction(1, 5)})

    def test_cap_enforced_on_build(self, Q5):
        with pytest.raises(DegreeCapExceeded):
            build(Q5, 1, {(9,): 1})

    def test_cap_itself_bounded(self, Q5):
        assert build(Q5, 1, {(64,): 1}, cap=64).degree_cap == 64
        with pytest.raises(ValueError, match="degree cap 65 is above 64"):
            build(Q5, 1, {(0,): 1}, cap=65)

    def test_cap_enforced_on_mul(self, Q5):
        f = build(Q5, 1, {(5,): 1})
        with pytest.raises(DegreeCapExceeded):
            f * f


class TestRegularDegree:
    def test_textbook_shape(self, Q5):
        # x2^2 + 5 x1 x2^3 is monic of degree 2 up to a small perturbation
        f = build(Q5, 2, {(0, 2): 1, (1, 3): 5})
        assert regular_degree(f, 1) == 2

    def test_no_monic_part(self, Q5):
        f = build(Q5, 2, {(0, 1): 5})
        assert regular_degree(f, 1) is None

    def test_unit_mixed_term_blocks(self, Q5):
        f = build(Q5, 2, {(0, 2): 1, (1, 1): 1})
        assert regular_degree(f, 1) is None

    def test_companion_decomposition(self, Q5):
        # x2^3 + 3 x2 + 1 + 5 x1: degree 3 with integral companions
        f = build(Q5, 2, {(0, 3): 1, (0, 1): 3, (0, 0): 1, (1, 0): 5})
        assert regular_degree(f, 1) == 3

    def test_leading_coefficient_must_be_one(self, Q5):
        f = build(Q5, 2, {(0, 2): 2})
        assert regular_degree(f, 1) is None


class TestDivision:
    def test_self_division(self, Q5):
        f = build(Q5, 2, {(0, 2): 1, (1, 0): 5})
        q, r = weierstrass_divide(f, f, 1)
        assert q.is_indistinguishable(build(Q5, 2, {(0, 0): 1}))
        assert r.is_zero

    def test_low_degree_passthrough(self, Q5):
        f = build(Q5, 2, {(0, 2): 1, (1, 0): 5})
        g = build(Q5, 2, {(0, 1): 1})
        q, r = weierstrass_divide(g, f, 1)
        assert q.is_zero
        assert r.is_indistinguishable(g)

    def test_worked_example_frozen(self, Q5):
        # x2^4 = (x2^2 - 5 x1)(x2^2 + 5 x1) + 25 x1^2, exactly
        f = build(Q5, 2, {(0, 2): 1, (1, 0): 5}, cap=8, prec=12)
        g = build(Q5, 2, {(0, 4): 1}, cap=8, prec=12)
        q, r = weierstrass_divide(g, f, 1)
        assert q.is_indistinguishable(build(Q5, 2, {(0, 2): 1, (1, 0): -5}, prec=12))
        assert r.is_indistinguishable(build(Q5, 2, {(2, 0): 25}, prec=12))

    def test_reconstruction_and_degree(self, Q5):
        f = build(Q5, 3, {(0, 0, 2): 1, (0, 0, 1): 3, (1, 0, 0): 25, (0, 1, 1): 125},
                  prec=12)
        g = build(Q5, 3, {(0, 0, 4): 1, (1, 1, 0): 7, (0, 0, 0): 2}, prec=12)
        d = regular_degree(f, 2)
        q, r = weierstrass_divide(g, f, 2)
        assert (g - (q * f + r)).is_zero
        assert r.degree_in(2) <= d - 1

    def test_not_regular_raises(self, Q5):
        f = build(Q5, 2, {(0, 1): 5})
        g = build(Q5, 2, {(0, 2): 1})
        with pytest.raises(NotRegular):
            weierstrass_divide(g, f, 1)

    def test_exact_rational_solve_oracle(self, Q5):
        # independent check of the frozen example by Gaussian elimination
        from harness_oracle_shim import solve_division
        q_sol, r_sol = solve_division(
            g={(0, 4): 1}, f={(0, 2): 1, (1, 0): 5}, nvars=2, active=1, d=2)
        assert q_sol == {(0, 2): 1, (1, 0): -5}
        assert r_sol == {(2, 0): 25}


class TestPreparation:
    def test_unit_times_distinguished(self, Q5):
        f = build(Q5, 2, {(0, 2): 1, (0, 1): 5, (1, 0): 25}, prec=12)
        q, dist = weierstrass_prepare(f, 1)
        # q*f = dist with dist monic of degree 2 in the active variable
        assert (q * f - dist).is_zero
        assert dist.degree_in(1) == 2
        assert gauss_valuation(q).value == 0
