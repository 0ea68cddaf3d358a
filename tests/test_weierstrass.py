import json
from fractions import Fraction

import pytest

from oracles import (
    poly_divmod_stepwise,
    series_add,
    series_mul,
    series_sub,
    solve_division,
    weierstrass_divide_from_zero,
)
from padic_tate.cli import main
from padic_tate.errors import (
    AmbiguousAtPrecision,
    CoefficientOutsideValuationRing,
    DegreeCapExceeded,
    NotRegular,
)
from padic_tate.field import PadicElement, ValuationResult, make_field
from padic_tate.harness import _random_series_instance
from padic_tate.parsing import parse_element
from padic_tate.prng import random_element, stream
from padic_tate.weierstrass import (
    StrictSeries,
    _poly_divmod,
    _split_regular,
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
        z = StrictSeries.build(2, Q5, {}, 8, 9)
        assert gauss_valuation(z) == ValuationResult("at_least", Fraction(9))

    def test_str(self, Q5):
        assert str(StrictSeries.build(2, Q5, {}, 8, 10)) == "0 + O(pi^10)"
        f = build(Q5, 2, {(1, 0): 3, (0, 2): 1}, prec=10)
        assert str(f) == "(1 + O(pi^10))*x2^2 + (3 + O(pi^10))*x1"

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


def from_literals(field, nvars, terms, prec=20):
    """A series whose coefficients are parsed literals, "O(pi^k)" allowed."""
    return StrictSeries.build(nvars, field, {expo: parse_element(text, field, prec)
                                             for expo, text in terms.items()}, 8, prec)


def digits(s: StrictSeries):
    """Everything a series claims: its precision and each coefficient."""
    return s.coeff_prec, [(e, c.shift, tuple(c.coeffs), c.abs_prec)
                          for e, c in s.coeffs.items()]


class TestOnePrecision:
    """A series is known to the least precision among its coefficients, a
    zero coefficient included, and no digit beyond it is reported."""

    def test_imprecise_constant_bounds_the_remainder(self, Q5):
        g = from_literals(Q5, 1, {(0,): "O(pi^3)", (1,): "1"})
        f = from_literals(Q5, 1, {(1,): "1", (0,): "1"})
        assert g.coeff_prec == 3
        q, r = weierstrass_divide(g, f, 0)
        assert r.coeff_prec == 3
        assert [str(c) for c in r.coeffs.values()] == ["4 + 4*pi + 4*pi^2 + O(pi^3)"]
        assert digits(q) == digits(from_literals(Q5, 1, {(0,): "1"}, prec=3))

    def test_imprecise_perturbation_bounds_the_quotient(self, Q5):
        # eps vanishes only modulo pi^3: f = x^2 + 125 x^3 fits f as well,
        # and its quotient x - 125 x^2 + ... differs from x at pi^3
        g = from_literals(Q5, 1, {(3,): "1"})
        f = from_literals(Q5, 1, {(2,): "1", (3,): "O(pi^3)"})
        q, r = weierstrass_divide(g, f, 0)
        assert (q.coeff_prec, r.coeff_prec) == (3, 3)
        assert digits(q) == digits(from_literals(Q5, 1, {(1,): "1"}, prec=3))

    def test_difference_keeps_the_operand_precision(self, Q5):
        g2 = from_literals(Q5, 1, {(0,): "7 + O(pi^1)"})
        diff = g2 - g2
        assert diff.is_zero and diff.coeff_prec == 1

    def test_coefficient_known_to_no_digit_raises(self, Q5):
        with pytest.raises(AmbiguousAtPrecision):
            from_literals(Q5, 1, {(2,): "1", (3,): "O(pi^0)"})

    def test_coefficient_known_to_no_digit_exits_3(self, tmp_path, capsys):
        paths = {}
        for name, terms in (("g", [{"exp": [1], "coeff": "1"}]),
                            ("f", [{"exp": [2], "coeff": "1"},
                                   {"exp": [3], "coeff": "O(pi^0)"}])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps({"nvars": 1, "terms": terms}))
        code = main(["--p", "5", "wdiv", "--g", str(paths["g"]), "--f", str(paths["f"]),
                     "--prec", "20"])
        assert code == 3
        assert capsys.readouterr().out == ""


SERIES_FIELDS = [
    make_field(5),
    make_field(2),
    make_field(5, "eisenstein", e=2, c=1),
    make_field(5, "eisenstein", e=4, c=-1),
    make_field(3, "unramified", f=2),
]


def _random_series(rng, field, nvars, prec, degree, base=None):
    """Up to five monomials of total degree <= degree, coefficients at
    shifts 0-3, one in four known below prec and one in ten an imprecise
    zero; with base, about half repeat or perturb base's coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(nvars)] += 1
        cprec = prec - rng.randint(1, 3) if rng.random() < 0.25 else prec
        if rng.random() < 0.1:
            terms[tuple(expo)] = PadicElement.zero(field, cprec)
        else:
            terms[tuple(expo)] = random_element(rng, field, cprec, 0, min(3, cprec - 1))
    for expo, c in (base.coeffs.items() if base else ()):
        if rng.random() < 0.5:
            terms[expo] = c if rng.random() < 0.5 else \
                c + random_element(rng, field, prec, 2, prec - 1)
    return StrictSeries.build(nvars, field, terms, 8, prec)


def _monic(rng, field, nvars, active, d, prec):
    """x_active^d plus random companions of degree below d."""
    def pure(j):
        return tuple(j if i == active else 0 for i in range(nvars))
    terms = {}
    for j in range(d):
        if rng.random() < 0.8:
            cprec = prec - rng.randint(0, 2)
            terms[pure(j)] = random_element(rng, field, cprec, 0, min(3, cprec - 1))
    terms[pure(d)] = PadicElement.one(field, prec)
    return StrictSeries.build(nvars, field, terms, 8, prec)


class TestOneSumPerMonomial:
    """Sums, differences, products and long division sum each monomial's
    raw terms once; each result claims what the step-by-step series
    arithmetic of tests/oracles.py claims."""

    @pytest.mark.parametrize("k", range(len(SERIES_FIELDS)))
    def test_matches_stepwise(self, k):
        field = SERIES_FIELDS[k]
        for i in range(60):
            rng = stream(19, "series", k, i)
            nvars, prec = rng.randint(1, 3), rng.choice((6, 10, 20))
            a = _random_series(rng, field, nvars, prec, 3)
            b = _random_series(rng, field, nvars, rng.choice((prec, prec - 2)), 3, base=a)
            assert digits(a + b) == digits(series_add(a, b)), (k, i)
            assert digits(a - b) == digits(series_sub(a, b)), (k, i)
            assert digits(a * b) == digits(series_mul(a, b)), (k, i)
            active, d = rng.randrange(nvars), rng.randint(1, 3)
            g = _random_series(rng, field, nvars, prec, 5)
            # w known to at least g's precision: when w's was lower, the
            # stepwise division kept g's (TestOnePrecision)
            w = _monic(rng, field, nvars, active, d, g.coeff_prec + rng.choice((2, 4)))
            mine, theirs = _poly_divmod(g, w, active, d), poly_divmod_stepwise(g, w, active, d)
            assert [digits(s) for s in mine] == [digits(s) for s in theirs], (k, i)

    def test_division_combines_elements_once(self, Q5, count_calls):
        # the only element-level sum is lead - one in the regularity test
        f = build(Q5, 3, {(0, 0, 2): 1, (0, 0, 1): 3, (1, 0, 0): 25, (0, 1, 1): 125})
        g = build(Q5, 3, {(0, 0, 4): 1, (1, 1, 0): 7, (0, 0, 0): 2})
        counted = count_calls((PadicElement, "_combine"))
        calls, (q, r) = counted(lambda: weierstrass_divide(g, f, 2))
        assert calls.total() == 1
        assert not q.is_zero and not r.is_zero


ONE_START_FIELDS = [
    make_field(5),
    make_field(2),
    make_field(3, "unramified", f=2),
    make_field(5, "eisenstein", e=2, c=1),
]


def _outcome(g, f, active, divide):
    """What a division claims of q and r, caps included, or the error it raised."""
    try:
        q, r = divide(g, f, active)
    except Exception as exc:
        return type(exc).__name__
    return [(s.degree_cap, digits(s)) for s in (q, r)]


def _recap(s: StrictSeries, cap: int) -> StrictSeries:
    return StrictSeries.build(s.nvars, s.field, s.coeffs, cap, s.coeff_prec)


def _padic_division(rng, field, nvars, active):
    """(g, f) with random digits, some known to fewer of them, and an eps of
    Gauss valuation 2 or 3.  A mixed eps monomial of active degree d makes
    q a geometric series, so the contraction runs up to prec/gamma passes."""
    prec, d = rng.choice((6, 10)), rng.randint(1, 3)
    eps = {}
    for _ in range(rng.randint(1, 2)):
        expo = [0] * nvars
        expo[active] = rng.randint(0, d)
        expo[rng.randrange(nvars)] += 1
        eps[tuple(expo)] = random_element(rng, field, prec, 2, 3)
    f = _monic(rng, field, nvars, active, d, prec) + StrictSeries.build(nvars, field, eps, 8, prec)
    return _random_series(rng, field, nvars, prec, 3), f


class TestOneStart:
    """The contraction that starts at the polynomial division of g returns,
    caps and precisions included, what the one that started at q_0 = 0 did."""

    @pytest.mark.parametrize("k", range(len(ONE_START_FIELDS)))
    def test_matches_the_zero_start(self, k):
        field = ONE_START_FIELDS[k]
        kinds = {"perturbed": 0, "eps=0": 0, "mixed caps": 0, "p-adic": 0}
        for i in range(40):
            rng = stream(23, "one-start", k, i)
            nvars = rng.randint(1, 3)
            active = nvars - 1
            f, g, _ = _random_series_instance(rng, field, nvars, 20, 8)
            w = _split_regular(f, active)[1]
            g_cap, f_cap = rng.choice(((6, 12), (12, 6), (8, 10), (10, 8)))
            cases = {"perturbed": (g, f), "eps=0": (g, w),
                     "mixed caps": (_recap(g, g_cap), rng.choice((_recap(f, f_cap),
                                                                  _recap(w, f_cap)))),
                     "p-adic": _padic_division(rng, field, nvars, active)}
            for kind, (a, b) in cases.items():
                mine = _outcome(a, b, active, weierstrass_divide)
                assert mine == _outcome(a, b, active, weierstrass_divide_from_zero), (k, i, kind)
                kinds[kind] += not isinstance(mine, str)
        assert min(kinds.values()) >= 30, kinds

