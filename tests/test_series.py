import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_tate import field as field_mod, series as series_mod
from padic_tate.dual import DualElement
from padic_tate.errors import OutsideConvergenceDomain, PadicError
from padic_tate.field import PadicElement, _ceil_div, _make, make_field
from padic_tate.prng import random_element, stream
from padic_tate.series import (
    _exp_truncation,
    _log_truncation,
    p_exp,
    p_log,
)
from padic_tate.tate import curve_coefficients, tate_series_point, tate_xy_with_derivative

from oracles import (
    _add_int,
    _combine,
    _inverse_unit,
    exp_partial_sum,
    exp_stepwise,
    exp_terms,
    from_fraction,
    log_last_term,
    log_partial_sum,
    log_stepwise,
    log_terms,
    series_point_stepwise,
    xy_with_derivative_stepwise,
)
from strategies import FIELDS, elements, int_operands


class TestExp:
    def test_exp_zero(self, Q5):
        assert p_exp(PadicElement.zero(Q5, 10)).is_indistinguishable(
            PadicElement.one(Q5, 10))

    def test_exp_5_frozen(self, Q5):
        # partial sum of 5^n/n! to n=24 reduced mod 5^10, frozen: 3474831
        got = p_exp(PadicElement.from_int(Q5, 5, 10))
        assert got.is_indistinguishable(PadicElement.from_int(Q5, 3474831, 10))
        assert from_fraction(Q5, exp_partial_sum(Fraction(5), 24), 10) \
            .is_indistinguishable(got)

    def test_exp_eisenstein_against_vector_oracle(self, E54):
        # exp(pi^5) with the series summed in Q[pi]/(pi^4 + 5) over Fractions
        x = PadicElement.uniformizer(E54, 40, power=5)
        got = p_exp(x)
        vec = [Fraction(0)] * 4
        fact = 1
        for n in range(0, 30):
            if n:
                fact *= n
            power = 5 * n
            coeff = Fraction((-5) ** (power // 4), fact)
            vec[power % 4] += coeff
        want = PadicElement.zero(E54, 40)
        for i, c in enumerate(vec):
            want = want + PadicElement.from_rational(E54, c, 44) * \
                PadicElement.uniformizer(E54, 44, power=1) ** i if i else \
                want + PadicElement.from_rational(E54, c, 44)
        assert got.is_indistinguishable(want)
        assert (got - 1).valuation().value == Fraction(5, 4)

    def test_domain_rejected(self, Q5, E54):
        with pytest.raises(OutsideConvergenceDomain):
            p_exp(PadicElement.one(Q5, 10))            # v = 0
        with pytest.raises(OutsideConvergenceDomain):
            p_exp(PadicElement.uniformizer(E54, 12))   # v = 1/4 boundary

    def test_truncation_matches_rational_bound(self):
        # the closed form against the rational per-term bound it stands for:
        # T is the least n with (n+1)*shift - e*n/(p-1) >= target
        for p, e in itertools.product((2, 3, 5, 7, 11), (1, 2, 3, 4, 6, 64)):
            lo = e // (p - 1) + 1                   # least shift with shift/e > 1/(p-1)
            for shift, target in itertools.product(range(lo, lo + 5), range(1, 60)):
                want = next(n for n in itertools.count(1)
                            if Fraction((n + 1) * shift) - Fraction(e * n, p - 1) >= target)
                assert _exp_truncation(shift, e, p, target) == want

    def test_image_valuation_exact(self, Q5, E54):
        for field, lo in ((Q5, 1), (E54, 2)):
            for i in range(40):
                rng = stream(3, "img", field.kind, i)
                x = random_element(rng, field, 24, lo, lo + 3)
                assert (p_exp(x) - 1).valuation().value == x.valuation().value


class TestLog:
    def test_log_one(self, Q5):
        got = p_log(PadicElement.one(Q5, 10))
        assert got.is_zero

    def test_log_exp_inverse(self, Q5):
        x = PadicElement.from_int(Q5, 5, 10)
        assert p_log(p_exp(x)).is_indistinguishable(x)

    def test_log_1_plus_25_frozen(self, Q5):
        # alternating partial sum to n=11 reduced mod 5^10, frozen unit 237176
        got = p_log(PadicElement.from_int(Q5, 26, 10))
        want = PadicElement.from_int(Q5, 237176 * 25, 10)
        assert got.is_indistinguishable(want)
        assert from_fraction(Q5, log_partial_sum(Fraction(25), 11), 10) \
            .is_indistinguishable(got)

    def test_domain_rejected(self, Q5):
        with pytest.raises(OutsideConvergenceDomain):
            p_log(PadicElement.from_int(Q5, 2, 10))    # v(y-1) = 0

    def test_truncation_is_the_last_term_below_target(self):
        # six shifts in from the ball's edge, targets 1..699 step 7
        for p, e in itertools.product((2, 3, 5, 7, 11), (1, 2, 3, 4, 6, 64)):
            lo = e // (p - 1) + 1
            for shift, target in itertools.product(range(lo, lo + 6), range(1, 700, 7)):
                assert _log_truncation(shift, e, p, target) == log_last_term(shift, e, p, target)

    def test_bijection_both_ways(self, Q5, E54):
        for field, lo in ((Q5, 1), (E54, 2)):
            for i in range(30):
                rng = stream(5, "bij", field.kind, i)
                x = random_element(rng, field, 20, lo, lo + 2)
                assert p_log(p_exp(x)).is_indistinguishable(x)
                y = PadicElement.one(field, 20) + x
                assert p_exp(p_log(y)).is_indistinguishable(y)

    def test_homomorphism(self, Q5):
        for i in range(50):
            rng = stream(7, "hom", i)
            x = random_element(rng, Q5, 20, 1, 3)
            y = random_element(rng, Q5, 20, 1, 3)
            res = p_exp(x + y) - p_exp(x) * p_exp(y)
            assert res.valuation().at_least(Fraction(18))


class TestDual:
    def test_identity_seed(self, Q5):
        x = PadicElement.from_int(Q5, 7, 10)
        d = DualElement.seed(x)
        assert d.value.is_indistinguishable(x)
        assert d.deriv.is_indistinguishable(PadicElement.one(Q5, 10))

    def test_square_derivative(self, Q5):
        x = PadicElement.from_int(Q5, 7, 10)
        d = DualElement.seed(x) * DualElement.seed(x)
        assert d.deriv.is_indistinguishable(x * 2)

    def test_exp_derivative_is_exp(self, Q5):
        x = PadicElement.from_int(Q5, 5, 12)
        d = p_exp(DualElement.seed(x))
        assert d.deriv.is_indistinguishable(d.value)

    def test_division_rule(self, Q5):
        x = DualElement.seed(PadicElement.from_int(Q5, 7, 12))
        r = (x * x + 1) / x             # f = x + 1/x, f' = 1 - 1/x^2
        xi = PadicElement.from_int(Q5, 7, 12).invert()
        want = PadicElement.one(Q5, 12) - xi * xi
        assert r.deriv.is_indistinguishable(want)

    def test_integer_powers(self, Q5):
        x = PadicElement.from_int(Q5, 7, 12)
        cube = DualElement.seed(x) ** 3             # (x^3)' = 3 x^2
        assert cube.value.is_indistinguishable(PadicElement.from_int(Q5, 343, 12))
        assert cube.deriv.is_indistinguishable(PadicElement.from_int(Q5, 3 * 49, 12))
        inv_sq = DualElement.seed(x) ** -2          # (x^-2)' = -2 x^-3
        xi = x.invert()
        assert inv_sq.value.is_indistinguishable(xi * xi)
        assert inv_sq.deriv.is_indistinguishable(xi * xi * xi * -2)

    @pytest.mark.parametrize("op", [operator.truediv, operator.sub], ids=["div", "sub"])
    def test_unsupported_left_operand(self, Q5, op):
        x = PadicElement.from_int(Q5, 7, 12)
        for operand in (x, DualElement.seed(x)):
            name = type(operand).__name__
            with pytest.raises(TypeError, match=f"'str' and '{name}'"):
                op("a", operand)

    def test_against_symmetric_difference(self, Q5):
        # (exp(x+h) - exp(x-h)) / 2h = exp'(x) + h^2/6 exp'''(x) + ...
        x = PadicElement.from_int(Q5, 5, 24)
        deriv = p_exp(DualElement.seed(x)).deriv
        for k in (4, 6, 8):
            h = PadicElement.uniformizer(Q5, 24, power=k)
            fin = (p_exp(x + h) - p_exp(x - h)) * (h * 2).invert()
            err = (fin - deriv).valuation()
            assert err.at_least(Fraction(min(2 * k, fin.abs_prec - 1)))

    # exact to the argument's precision, including the digits that come from
    # the series' last term x^T/T! (t^T for log): at prec 8 these are 2*pi^7
    # of exp(9) over Q_3 and 4*pi^6 + 4*pi^7 of 1/26 over Q_5
    @pytest.mark.parametrize("p,n,prec", [(3, 9, 8), (5, 125, 8), (2, 4, 12), (3, 9, 20)])
    def test_exp_derivative_exact(self, p, n, prec):
        field = make_field(p)
        d = p_exp(DualElement.seed(PadicElement.from_int(field, n, prec)))
        want = from_fraction(field, exp_partial_sum(Fraction(n), 4 * prec), prec)
        assert key(d.deriv) == key(d.value) == key(want)

    @pytest.mark.parametrize("p,n,prec", [(5, 26, 8), (3, 28, 8), (2, 5, 12), (5, 126, 20)])
    def test_log_derivative_exact(self, p, n, prec):
        field = make_field(p)
        d = p_log(DualElement.seed(PadicElement.from_int(field, n, prec)))
        assert key(d.deriv) == key(from_fraction(field, Fraction(1, n), prec))
        want = log_partial_sum(Fraction(n - 1), 4 * prec)
        assert key(d.value) == key(from_fraction(field, want, prec))

    def test_chain_rule_with_unseeded_derivative(self, Q5):
        # (exp(x), exp(x) x') and (log(y), y'/y) for x = 5^3, y = 1 + x and
        # a random integer derivative x' known to the same precision
        m = stream(19, "dual-deriv").randrange(1, 5 ** 8)
        deriv = PadicElement.from_int(Q5, m, 8)
        ex = exp_partial_sum(Fraction(125), 32)
        d = p_exp(DualElement(PadicElement.from_int(Q5, 125, 8), deriv))
        assert key(d.deriv) == key(from_fraction(Q5, ex * m, 8))
        d = p_log(DualElement(PadicElement.from_int(Q5, 126, 8), deriv))
        assert key(d.deriv) == key(from_fraction(Q5, Fraction(m, 126), 8))

    def test_leibniz_matches_finite_difference(self, Q5):
        # product rule on a hand-built map, checked against a difference quotient
        def f(t):
            return t * t * t + t * 2

        x = PadicElement.from_int(Q5, 3, 20)
        d = f(DualElement.seed(x))
        want = x * x * 3 + 2
        assert d.deriv.is_indistinguishable(want)


class TestDualConstants:
    """A PadicElement, int or Fraction operand is a constant: its derivative
    is exactly zero, not a zero known to the constant's precision."""

    @staticmethod
    def _dual(Q5):
        # value 7 + O(pi^10) and derivative 5^3 * unit + O(pi^40): the
        # derivative is known far beyond the value and the constants
        value = PadicElement.from_int(Q5, 7, 10)
        deriv = random_element(stream(2, "dual-constant"), Q5, 40, 3, 3)
        return DualElement(value, deriv)

    def test_sum_keeps_derivative(self, Q5):
        d = self._dual(Q5)
        c = PadicElement.from_int(Q5, 11, 5)
        for m in (c, 2, -3, Fraction(1, 5), Fraction(3, 7)):
            for r in (d + m, m + d, d - m):
                assert r.deriv == d.deriv
            assert (m - d).deriv == -d.deriv
            assert (d + m).value == d.value + m and (d - m).value == d.value - m
            assert (m - d).value == m - d.value

    def test_product_and_quotient_scale_derivative(self, Q5):
        d = self._dual(Q5)
        c = PadicElement.from_int(Q5, 11, 10)
        for m in (c, 2, Fraction(3, 7), 25):
            assert (d * m).deriv == (m * d).deriv == d.deriv * m
            assert (d / m).deriv == d.deriv / m
            assert (d * m).value == d.value * m and (d / m).value == d.value / m
        # with a constant the product keeps digits the zero derivative of a
        # precision-10 constant would have cut: 3 + 10 = 13
        assert (d * c).deriv.abs_prec == 13

    def test_scalar_over_dual(self, Q5):
        d = self._dual(Q5)
        for m in (PadicElement.from_int(Q5, 11, 10), 3, Fraction(2, 5)):
            r = m / d
            inv = d.invert()
            assert r.value == inv.value * m and r.deriv == inv.deriv * m

    def test_exp_of_zero_scales_derivative(self, Q5):
        # exp'(x) x' = x' for x = O(5^10): the derivative is 3, not 1
        x = DualElement(PadicElement.zero(Q5, 10), PadicElement.from_int(Q5, 3, 10))
        r = p_exp(x)
        assert str(r.value) == "1 + O(pi^10)" and str(r.deriv) == "3 + O(pi^10)"
        seeded = p_exp(DualElement.seed(PadicElement.zero(Q5, 10)))
        assert seeded == DualElement(PadicElement.one(Q5, 10), PadicElement.one(Q5, 10))

    def test_zeroth_power_follows_the_element_rule(self, Q5):
        # x ** 0 is 1 known to x's relative precision, or to its abs_prec for
        # an imprecise zero, whose relative precision 0 would prove nothing
        one = PadicElement.one(Q5, 10)
        for value in (PadicElement.zero(Q5, 10), PadicElement.from_int(Q5, 35, 10)):
            r = DualElement(value, one) ** 0
            assert r == DualElement.constant(value ** 0)
        assert str((DualElement(PadicElement.zero(Q5, 10), one) ** 0).value) == "1 + O(pi^10)"

    def test_log_of_one_proves_only_known_digits(self, Q5):
        # log'(y) y' = y'/y with y = 1 + O(5^10) and y' = 5^-3 + O(5^20):
        # the error of y costs y' its digits beyond pi^(10 - 3)
        y = DualElement(PadicElement.one(Q5, 10),
                        PadicElement.from_rational(Q5, Fraction(1, 125), 20))
        r = p_log(y)
        assert str(r.value) == "O(pi^10)" and str(r.deriv) == "pi^-3 + O(pi^7)"
        seeded = p_log(DualElement.seed(PadicElement.one(Q5, 10)))
        assert seeded == DualElement(PadicElement.zero(Q5, 10), PadicElement.one(Q5, 10))


class TestDualWithCurveEvaluator:
    def test_dual_eval_of_curve_coordinate(self, Q5):
        # a fixed-q coordinate evaluator written for elements is a valid
        # formula handle: the coefficient form of X (tests/oracles.py) on
        # the dual seed gives the X' that the library's integer pass sums
        q = PadicElement.from_int(Q5, 25, 40)
        u = PadicElement.from_int(Q5, 7, 40)

        def x_at_fixed_q(t):
            return series_point_stepwise(curve_coefficients(q), t, 10)[0]

        d = x_at_fixed_q(DualElement.seed(u))
        x, y, xp = tate_xy_with_derivative(curve_coefficients(q), u)
        assert d.value.is_indistinguishable(x)
        assert d.deriv.is_indistinguishable(xp)
        # and the derivative satisfies the coordinate relation at u
        assert (u * d.deriv - x - y * 2).valuation().at_least(Fraction(30))


class TestUnramifiedExp:
    def test_exp_log_round_trip_unramified(self, U22):
        # v(x) > 1/(p-1) = 1 forces shift >= 2 in the unramified field
        for i in range(10):
            rng = stream(29, "unram", i)
            x = random_element(rng, U22, 20, 2, 4)
            y = p_exp(x)
            assert (y - 1).valuation().value == x.valuation().value
            assert p_log(y).is_indistinguishable(x)


# the three base fields, an eisenstein field over p = 5 and one over p = 2
# (the ball's edge at shift e + 1), and unramified fields of degree 2 and 3
SERIES_FIELDS = {
    "Q2": make_field(2),
    "Q3": make_field(3),
    "Q5": make_field(5),
    "Q5(pi^4=-5)": make_field(5, "eisenstein", e=4, c=-1),
    "Q2(pi^3=6)": make_field(2, "eisenstein", e=3, c=3),
    "Q4": make_field(2, "unramified", f=2),
    "Q27": make_field(3, "unramified", f=3),
}


def _edge(field) -> int:
    """The least shift strictly inside the ball v(x) > 1/(p-1)."""
    return field.e // (field.p - 1) + 1


def key(x):
    return (x.shift, x.coeffs, x.abs_prec)


@st.composite
def ball_elements(draw, field, max_prec: int) -> PadicElement:
    """pi^shift * unit, shift from the ball's edge to prec - 1."""
    prec = draw(st.integers(max(2, _edge(field) + 1), max_prec))
    shift = draw(st.integers(_edge(field), prec - 1))
    vec = [draw(st.integers(0, field.p ** 40)) for _ in range(field.coeff_len)]
    vec[0] = vec[0] * field.p + draw(st.integers(1, field.p - 1))
    return _make(field, shift, vec, prec)


class TestFusedSeries:
    """p_exp and p_log reduce each series once, and agree with the
    term-by-term loops (tests/oracles.py) in shift, coefficients and
    precision; a dual takes the same path for its value and its derivative
    from the chain rule."""

    @given(data=st.data(), name=st.sampled_from(sorted(SERIES_FIELDS)))
    @settings(max_examples=150, deadline=None)
    def test_matches_stepwise(self, data, name):
        x = data.draw(ball_elements(SERIES_FIELDS[name], 200))
        y = p_exp(x)
        log_y = p_log(y)
        assert key(y) == key(exp_stepwise(x))
        assert key(log_y) == key(log_stepwise(y))
        # exp' = exp and log'(y) = 1/y
        for got, want in ((p_exp(DualElement.seed(x)), (y, y)),
                          (p_log(DualElement.seed(y)), (log_y, 1 / y))):
            assert (key(got.value), key(got.deriv)) == tuple(map(key, want))

    @pytest.mark.parametrize("name", ["Q2", "Q5(pi^4=-5)", "Q27"])
    def test_matches_stepwise_at_prec_640(self, name):
        field = SERIES_FIELDS[name]
        shift = _edge(field) + 1
        x = random_element(stream(13, "fused", name), field, 640, shift, shift)
        y = p_exp(x)
        assert key(y) == key(exp_stepwise(x))
        assert key(p_log(y)) == key(log_stepwise(y))

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_log_terms_past_the_last_change_no_digit(self, name):
        # the stepwise sum carried to twice the last term's index, from the
        # ball's edge inwards, with y - 1 known past the precision and not
        field = SERIES_FIELDS[name]
        for i, shift in enumerate(range(_edge(field), _edge(field) + 3)):
            for rel in (200, 30):
                t = random_element(stream(23, "log-tail", name, i, rel), field,
                                   shift + rel, shift, shift)
                y = PadicElement.one(field, 120) + t
                T = _log_truncation(shift, field.e, field.p, y.abs_prec)
                assert key(p_log(y)) == key(log_stepwise(y, 2 * T)), (shift, rel)

    @pytest.fixture
    def calls(self, count_calls):
        """counted(call) -> (calls of _make, PadicElement.__mul__,
        _scale_rational and Fraction.__new__, call's result)."""
        return count_calls((field_mod, "_make"), (PadicElement, "__mul__"),
                           (PadicElement, "_scale_rational"), (Fraction, "__new__"))

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_one_make_per_series(self, calls, name):
        field = SERIES_FIELDS[name]
        shift = _edge(field)
        x = random_element(stream(17, "count", name), field, 80, shift, shift)
        # no count of Fraction.__new__: no series builds a Fraction
        counts, y = calls(lambda: p_exp(x))
        assert counts == {"_make": 1}
        # one for y - 1, one for the sum
        assert calls(lambda: p_log(y))[0] == {"_make": 2}
        # a dual adds the one chain-rule product exp(x) x' or quotient y'/y
        dx, dy = DualElement.seed(x), DualElement.seed(y)
        assert calls(lambda: p_exp(dx))[0] == {"_make": 2, "__mul__": 1}
        assert calls(lambda: p_log(dy))[0] == {"_make": 3, "__mul__": 1}


RECURRENCE_FIELDS = {
    "Q2": make_field(2),
    "Q3": make_field(3),
    "Q5": make_field(5),
    "Q7": make_field(7),
    "Q3(pi^3=6)": make_field(3, "eisenstein", e=3, c=2),
    "Q5(pi^2=15)": make_field(5, "eisenstein", e=2, c=3),
    "Q5(pi^4=-5)": make_field(5, "eisenstein", e=4, c=-1),
    "Q2(pi^2=6)": make_field(2, "eisenstein", e=2, c=3),
    "Q4": make_field(2, "unramified", f=2),
    "Q27": make_field(3, "unramified", f=3),
}


class TestOneTermRecurrence:
    """p_exp and p_log against the one-term recurrences of tests/oracles.py,
    term n = term n-1 * t * num(n)/n, which the library summed term by term
    before rectangular splitting replaced them: the same shift,
    coefficients and precision, dual arguments included."""

    @pytest.mark.parametrize("name", sorted(RECURRENCE_FIELDS))
    def test_terms_match_separate_generators(self, name):
        # shifts from the ball's edge inwards, precisions 1..640 (and 2048 on
        # Q2 and Q3(pi^3=6), where num(n)/n = p^w a/b has |w| >= 5), arguments
        # known to the precision and truncated short of it; log of exp(x)
        # and of 1 + t; a dual's derivative is the chain rule's product
        field = RECURRENCE_FIELDS[name]
        p, e = field.p, field.e
        checked = 0
        precs = (1, 2, 3, 5, 9, 17, 40, 97, 160, 333, 640)
        for prec in precs + ((2048,) if name in ("Q2", "Q3(pi^3=6)") else ()):
            for i, shift in enumerate(range(_edge(field), min(_edge(field) + 3, prec))):
                rng = stream(29, "recurrence", name, prec, i)
                for rel in sorted({prec - shift, max(1, (prec - shift) // 3)}):
                    x = random_element(rng, field, shift + rel, shift, shift)
                    t = random_element(rng, field, shift + rel, shift, shift)
                    T = _exp_truncation(shift, e, p, x.abs_prec)
                    want = field_mod._sum_terms(field, exp_terms(x, T))
                    d = p_exp(DualElement(x, t))
                    assert key(p_exp(x)) == key(d.value) == key(want)
                    assert key(d.deriv) == key(want * t)
                    for arg in (d.value, PadicElement.one(field, prec) + t):
                        u = arg - 1
                        if u.is_zero:
                            assert key(p_log(arg)) == key(u)
                            continue
                        T = _log_truncation(u.shift, e, p, u.abs_prec)
                        want = field_mod._sum_terms(field, log_terms(u, T))
                        d = p_log(DualElement(arg, x))
                        assert key(p_log(arg)) == key(d.value) == key(want)
                        assert key(d.deriv) == key(x / arg)
                    checked += 1
        assert checked > 40

    @pytest.mark.parametrize("name", ["Q5", "Q3(pi^3=6)", "Q5(pi^4=-5)", "Q27"])
    def test_full_products(self, count_calls, name):
        # a series of T + 1 terms makes m - 1 products for t^2..t^m, with
        # m = isqrt(T + 1), and one per link between its blocks; log one more
        # for its factor t
        field = RECURRENCE_FIELDS[name]
        p, e = field.p, field.e
        counted = count_calls((series_mod, "_vec_mul"))

        def products(T):
            m = math.isqrt(T + 1)
            return (m - 1) + (_ceil_div(T + 1, m) - 1)

        for prec in (2, 40, 160, 640):
            for i, shift in enumerate(range(_edge(field), min(_edge(field) + 3, prec))):
                x = random_element(stream(37, "products", name, prec, i), field, prec, shift, shift)
                y = PadicElement.one(field, prec) + x
                assert counted(lambda: p_exp(x))[0]["_vec_mul"] == \
                    products(_exp_truncation(shift, e, p, prec))
                assert counted(lambda: p_log(y))[0]["_vec_mul"] == \
                    products(_log_truncation(shift, e, p, prec) - 1) + 1
        if name == "Q27":
            # shift 3 at prec 640: 30 full products for 256 terms
            x = random_element(stream(37, "products", name), field, 640, 3, 3)
            assert _exp_truncation(3, e, p, 640) == 255
            assert counted(lambda: p_exp(x))[0]["_vec_mul"] == 30


class TestDoubledPrecision:
    """Every digit p_exp and p_log claim at precision N is the digit of the
    same series at 2N: the argument is drawn at 2N and truncated to N, over
    the four field kinds of tests/strategies.py, p = 2 included."""

    @given(data=st.data(), name=st.sampled_from(sorted(FIELDS)))
    @settings(max_examples=200, deadline=None)
    def test_claimed_digits_survive_doubling(self, data, name):
        field = FIELDS[name]
        p, edge = field.p, _edge(field)
        N = data.draw(st.integers(edge + 1, 160))
        # v(x) from the ball's edge inwards
        shift = data.draw(st.integers(edge, N - 1))
        vec = [data.draw(st.integers(0, p ** (2 * N))) for _ in range(field.coeff_len)]
        vec[0] = vec[0] * p + data.draw(st.integers(1, p - 1))
        wide = _make(field, shift, vec, 2 * N)
        x = wide.truncate(N)
        for f, arg, wide_arg in ((p_exp, x, wide), (p_log, 1 + x, 1 + wide)):
            got, ref = f(arg), f(wide_arg)
            assert got.abs_prec == N and ref.abs_prec == 2 * N
            assert key(got) == key(ref.truncate(N))


def _grid(field):
    """Elements at shifts -2..4 known to precisions from below the shift
    (imprecise zeros, abs_prec <= 0 included) to 12, with p-power entries."""
    p = field.p
    vecs = ([1] + [0] * (field.coeff_len - 1),
            [p + 2 * i for i in range(field.coeff_len)],
            [p ** 3 * (i + 1) for i in range(field.coeff_len)])
    return [_make(field, shift, vec, prec)
            for shift in (-2, 0, 1, 4) for prec in (shift - 1, -1, 0, shift + 1, 7, 12)
            for vec in vecs]


class TestOneAlignedSum:
    """x + y, x - y, x +- m and m +- x, each one _sum_terms, and the unit of
    a rational by _rational_unit agree in shift, coefficients and precision
    with the separate kernels they replaced (tests/oracles.py)."""

    @staticmethod
    def _check_pair(x, y):
        assert key(x + y) == key(_combine(x, y, 1))
        assert key(x - y) == key(_combine(x, y, -1))

    @staticmethod
    def _check_int(x, m):
        assert key(x + m) == key(m + x) == key(_combine(x, m, 1))
        assert key(x - m) == key(_combine(x, m, -1))
        assert key(m - x) == key(_add_int(x, m, -1))

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_grid_matches_separate_kernels(self, name):
        field = SERIES_FIELDS[name]
        grid = _grid(field)
        p = field.p
        for x in grid:
            for y in grid:
                self._check_pair(x, y)
            for m in (0, 1, -7, p, -p ** 3, 3 * p ** 12):
                self._check_int(x, m)

    @given(data=st.data(), name=st.sampled_from(sorted(SERIES_FIELDS)))
    @settings(max_examples=300, deadline=None)
    def test_drawn_matches_separate_kernels(self, data, name):
        # y's shift reaches past x's precision, so that y is often skipped
        field = SERIES_FIELDS[name]
        x, y = data.draw(elements(field)), data.draw(elements(field, -3, 20))
        self._check_pair(x, y)
        self._check_pair(y, x)
        self._check_int(x, data.draw(int_operands(field.p)))

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_rational_unit_matches_inverse_unit(self, name):
        field = SERIES_FIELDS[name]
        for digits in (1, 5, 40):
            mod = field.p ** digits
            for n in range(1, 301):
                down, unit = _inverse_unit(field, n, mod)
                assert field_mod._rational_unit(field, 1, n, mod) == (-down, unit)
                assert field_mod._rational_unit(field, -1, n, mod) == (-down, -unit % mod)


def dkey(x):
    return (key(x.value), key(x.deriv)) if isinstance(x, DualElement) else key(x)


def outcome(call):
    """dkey of each coordinate that call() returns, or the type of the
    library error it raises."""
    try:
        return tuple(map(dkey, call()))
    except PadicError as exc:
        return type(exc)


def _duals(grid):
    """Duals over the grid: each element as a value, with derivatives that
    are units, p-powers and imprecise zeros (abs_prec <= 0 among them)."""
    n = len(grid)
    return [DualElement(x, grid[(7 * i + 3) % n]) for i, x in enumerate(grid)]


class TestFusedCoefficients:
    """The raw terms of products, an int times an element and an element
    times an element (field._product_term), agree in shift, coefficients
    and precision with the same expressions reduced one operation at a time
    (tests/oracles.py); so does a series point near the kernel with its
    coefficients reduced each.  A dual product's derivative holds, to the
    precision it claims, the digits of the difference quotient of the values
    at representatives with other digits past each precision."""

    @staticmethod
    def _check(s, w, m):
        # the int multiples of the Tate point's coefficients, m S_m w_m and
        # -m(m+1)/2 S_m w_m, of each factor and of their product, and 0
        field = w.field
        for k in (m, -(m * (m + 1) // 2), 0):
            for x in (s, w, s * w):
                term = field_mod._product_term(k, x)
                assert key(field_mod._sum_terms(field, [term])) == key(x * k)
            if k:
                assert key((s * w) * k) == key((s * k) * w)
        assert key(field_mod._sum_terms(field, [field_mod._product_term(1, s, w)])) == key(s * w)

    @staticmethod
    def _check_leibniz(a, b):
        # a and b as the jets x + h dx and w + h dw: (A(h) B(h) - x w) / h is
        # x dw + dx w + h dx dw, with h = pi^40 past every claimed digit.
        # Each of x, dx, w and dw is a representative known 100 digits past
        # its precision, with nonzero digits there, so that a digit claimed
        # past what the operands fix differs from the quotient's
        def lift(x):
            field = x.field
            top = x.abs_prec + 100
            noise = _make(field, x.abs_prec, [field.p - 1] * field.coeff_len, top)
            if x.is_zero:
                return noise
            return PadicElement(field, x.shift, x.coeffs, top) + noise
        field = a.value.field
        h = PadicElement.uniformizer(field, 200, 40)
        x, dx, w, dw = map(lift, (a.value, a.deriv, b.value, b.deriv))
        quotient = ((x + h * dx) * (w + h * dw) - x * w) * h.invert()
        deriv = (a * b).deriv
        assert quotient.abs_prec >= deriv.abs_prec
        assert deriv.is_indistinguishable(quotient)

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_powers_of_u_near_one(self, name):
        # u = 1 + pi^k v: m (u^m + u^-m - 2) = m (u^m - 1)^2 / u^m has
        # valuation at least 2k, above its parts'; at prec 3 it is an
        # imprecise zero.  v(q) = 1, so m runs to prec, past p^2 at prec
        # 40, and m = 1 and p | m both occur; u is also known 30 digits
        # beyond the curve.
        field = SERIES_FIELDS[name]
        for k in (1, 2, 5):
            for prec in (3, 12, 40):
                v = random_element(stream(19, "coefficient", name, k, prec), field, prec + 30, 0, 0)
                q = PadicElement.uniformizer(field, prec)
                for extra in (0, 30):
                    u = (v * PadicElement.uniformizer(field, prec + extra, k) + 1).truncate(prec + extra)
                    for point, oracle in ((tate_series_point, series_point_stepwise),
                                          (tate_xy_with_derivative, xy_with_derivative_stepwise)):
                        got = outcome(lambda: point(curve_coefficients(q), u, 0))
                        want = outcome(lambda: oracle(curve_coefficients(q), u, 0))
                        assert got == want, (k, prec, extra)

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_grid_matches_stepwise(self, name):
        # any pair of factors, imprecise zeros and abs_prec <= 0 included
        field = SERIES_FIELDS[name]
        grid = _grid(field)
        p = field.p
        for s in grid:
            for w in grid[::7]:
                for m in (1, 2, p, p + 1, p * p):
                    self._check(s, w, m)

    @pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
    def test_dual_product_grid_matches_difference_quotient(self, name):
        field = SERIES_FIELDS[name]
        grid = _grid(field)
        duals = _duals(grid) + [DualElement.seed(x) for x in grid[::5]] + [
            DualElement.constant(x) for x in grid[::5]]
        for a in duals:
            for b in duals[::3]:
                self._check_leibniz(a, b)

    @given(data=st.data(), name=st.sampled_from(sorted(SERIES_FIELDS)),
           m=st.integers(1, 60))
    @settings(max_examples=300, deadline=None)
    def test_drawn_matches_stepwise(self, data, name, m):
        field = SERIES_FIELDS[name]
        x, w, dx, dw = (data.draw(elements(field)) for _ in range(4))
        self._check(x, w, m)
        self._check_leibniz(DualElement(x, dx), DualElement(w, dw))
