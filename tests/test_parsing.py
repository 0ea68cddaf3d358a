import re
import time
from fractions import Fraction

import pytest

from padic_tate.errors import DenominatorNotInvertible, ParseError
from padic_tate.field import MAX_PREC, PadicElement, make_field
from padic_tate.parsing import parse_element
from padic_tate.prng import random_unit, stream

from oracles import parse_element_budgeted
from strategies import FIELDS as KINDS

# the nine fields of tests/test_tate.py's TestSeriesPointDifferential
FIELDS = {
    "Q2": make_field(2),
    "Q3": make_field(3),
    "Q5": make_field(5),
    "Q7": make_field(7),
    "Q5(pi^2=5)": make_field(5, "eisenstein", e=2, c=1),
    "Q5(pi^4=-5)": make_field(5, "eisenstein", e=4, c=-1),
    "Q3(pi^3=6)": make_field(3, "eisenstein", e=3, c=2),
    "Q9": make_field(3, "unramified", f=2),
    "Q8": make_field(2, "unramified", f=3),
}


def test_rational_literal(Q5):
    got = parse_element("7/2", Q5, 8)
    want = PadicElement.from_int(Q5, 7, 8) * PadicElement.from_int(Q5, 2, 8).invert()
    assert got.is_indistinguishable(want)


def test_uniformizer_expression(E54):
    got = parse_element("pi^3 - 1", E54, 12)
    pi3 = PadicElement.uniformizer(E54, 14, power=3)
    assert (got + 1 - pi3).is_zero


def test_integer_power(Q5):
    got = parse_element("1 + 5^2", Q5, 10)
    assert got.is_indistinguishable(PadicElement.from_int(Q5, 26, 10))


def test_scaled_atom(Q5):
    got = parse_element("3*pi^2 + 1/2", Q5, 9)
    want = PadicElement.from_int(Q5, 75, 11) + \
        PadicElement.from_rational(Q5, Fraction(1, 2), 11)
    assert got.is_indistinguishable(want)


def test_negative_leading_term(Q5):
    got = parse_element("-1", Q5, 5)
    assert got.is_indistinguishable(PadicElement.from_int(Q5, -1, 5))


def test_zero(Q5):
    z = parse_element("0", Q5, 6)
    assert z.is_zero and z.abs_prec == 6


def test_residue_generator(U22):
    g = parse_element("g", U22, 8)
    # g satisfies g^2 + g + 1 = 0
    assert (g * g + g + 1).is_zero


def test_generator_rejected_in_base_field(Q5):
    with pytest.raises(ParseError):
        parse_element("g + 1", Q5, 6)


def test_garbage_rejected(Q5):
    for bad in ("", "5 +", "^3", "pi^", "1//2", "foo"):
        with pytest.raises(ParseError):
            parse_element(bad, Q5, 6)


def test_round_trip_display(Q5):
    x = PadicElement.from_int(Q5, 3906, 6)
    text = str(x).rsplit(" + O(", 1)[0]
    assert parse_element(text, Q5, 6).is_indistinguishable(x)


def test_negative_power_literal(Q5):
    got = parse_element("5^-2", Q5, 4)
    assert got.valuation().value == -2


def test_precision_marker_round_trip(Q5):
    x = PadicElement.from_int(Q5, 3906, 6)
    back = parse_element(str(x), Q5, 12)
    assert back.abs_prec == 6
    assert back.is_indistinguishable(x)


def test_precision_marker_on_zero(Q5):
    z = parse_element("O(pi^7)", Q5, 12)
    assert z.is_zero and z.abs_prec == 7


def test_products_and_a_parenthesised_digit(U22):
    got = parse_element("2*g*pi^-1 + (g + 1)*pi^3 - pi*pi", U22, 8)
    terms = [parse_element(t, U22, 8) for t in ("2*g^1*pi^-1", "g*pi^3", "pi^3", "pi^2")]
    assert got == terms[0] + terms[1] + terms[2] - terms[3]
    assert got.abs_prec == 8


def test_one_sum_per_term(Q5):
    assert parse_element("(1 + pi)*(2)*pi^2", Q5, 9) == parse_element("pi^2 + pi^3", Q5, 9) * 2
    with pytest.raises(ParseError, match="at most one factor"):
        parse_element("(1 + pi)*(1 + pi)", Q5, 9)
    # a printed digit needs one level, and a deeper one would recurse
    with pytest.raises(ParseError, match="found '\\('"):
        parse_element("(" * 5000 + "5" + ")" * 5000, Q5, 9)


def test_zero_base(Q5):
    assert parse_element("0^3 + 0*pi^-7", Q5, 6) == PadicElement.zero(Q5, 6)
    assert parse_element("0^0", Q5, 6) == PadicElement.one(Q5, 6)
    # 0^-1 is no element: refused as a literal, as 1/0 is
    for bad in ("0^-1", "2*0^-3 + 1", "1/0"):
        with pytest.raises(ParseError):
            parse_element(bad, Q5, 6)


def test_negative_valuation_known_to_prec(Q5):
    # the guessed working precision of the old parser left 5^-21 at 39 digits
    got = parse_element("5^-21", Q5, 40)
    assert (got.shift, got.abs_prec) == (-21, 40)
    assert parse_element("pi^-30 + 1", Q5, 20).abs_prec == 20


def test_long_denominator_is_read(Q2):
    # 1/2^100 written out, which the old token-length budget refused
    got = parse_element("1/1267650600228229401496703205376", Q2, 5)
    assert got == parse_element("2^-100", Q2, 5)
    assert (got.shift, got.abs_prec) == (-100, 5)


def test_integer_power_is_one_modular_power(Q5):
    start = time.perf_counter()
    got = parse_element("3^100000 * 10^100000", Q5, 6)
    assert time.perf_counter() - start < 1
    assert got.abs_prec == 6 and got.is_zero
    assert parse_element("3^100000", Q5, 6) == PadicElement.from_int(Q5, pow(3, 100000, 5 ** 6), 6)


def test_valuation_floor(Q5, E54):
    assert parse_element(f"pi^-{MAX_PREC}", E54, 1).shift == -MAX_PREC
    for field, text in ((E54, f"pi^-{MAX_PREC + 1}"), (E54, f"1/{5 ** 1025}"), (Q5, f"5^-{MAX_PREC + 1}"),
                        (Q5, f"1 + 3*25^-{MAX_PREC // 2 + 1}")):
        with pytest.raises(DenominatorNotInvertible, match="below pi"):
            parse_element(text, field, 10)


def test_integer_of_more_than_4300_digits(Q5):
    assert parse_element("1" * 4300, Q5, 3) == PadicElement.from_int(Q5, int("1" * 4300), 3)
    for text in ("1" * 4301, "pi^" + "1" * 4301, "1/" + "3" * 4301, "1 + O(pi^" + "1" * 4301 + ")"):
        with pytest.raises(ParseError, match="4300"):
            parse_element(text, Q5, 3)


def literals(rng, field, count):
    """Seeded literals over every term form: an integer, a rational, m^k,
    r*m^k, r*m, pi^k, r*pi^k and, in an unramified field, g^k and r*g^k,
    with exponents in -60..60."""
    forms = ["{m}", "{r}", "{m}^{k}", "{r}*{m}^{k}", "{r}*{m}", "pi^{k}", "pi", "{r}*pi^{k}"]
    if field.kind == "unramified":
        forms += ["g^{k}", "g", "{r}*g^{k}"]
    p = field.p
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 4)):
            m = rng.choice([rng.randint(1, 30), p ** rng.randint(1, 8), p ** rng.randint(1, 4) * rng.randint(2, 9)])
            den = rng.choice([1, rng.randint(1, 12), p ** rng.randint(1, 120), p ** rng.randint(1, 12) * 7])
            r = f"{rng.choice([0, 1, rng.randint(1, 10 ** 6), p ** rng.randint(1, 30)])}/{den}"
            form = rng.choice(forms)
            terms.append(form.format(m=m, r=r, k=rng.randint(-60, 60)))
        signs = [rng.choice(["+", "-"]) for _ in terms]
        text = "".join(f" {s} {t}" for s, t in zip(signs, terms))[3:]
        yield ("-" + text) if signs[0] == "-" else text


class TestAgainstBudgetedParser:
    """Where the old parser (tests/oracles.py) reached prec the literal reads
    the same; where it fell short, it reads known to prec and agrees with
    every digit the old parser had."""

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_literals(self, name):
        field = FIELDS[name]
        rng = stream(37, "literals", name)
        short = 0
        for text in literals(rng, field, 120):
            prec = rng.randint(1, 100)
            got = parse_element(text, field, prec)
            assert got.abs_prec == prec, text
            try:
                old = parse_element_budgeted(text, field, prec)
            except DenominatorNotInvertible:
                short += 1
                continue
            if old.abs_prec < prec:
                short += 1
            assert got.truncate(old.abs_prec) == old, (text, prec)
        assert short > 0


class TestRoundTrip:
    """Every printed element, at shifts -60..60, reads back equal."""

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_printed_element_reads_back(self, name):
        field = FIELDS[name]
        rng = stream(41, "round-trip", name)
        for shift in range(-60, 61):
            prec = shift + rng.randint(1, 30)
            x = PadicElement(field, shift, random_unit(rng, field, prec - shift).coeffs, prec)
            assert parse_element(str(x), field, prec + rng.randint(0, 5)) == x, str(x)
            zero = PadicElement.zero(field, shift)
            assert parse_element(str(zero), field, MAX_PREC) == zero


class TestDoubledPrecision:
    """A literal is an exact value, so every digit parse_element claims at
    N is the digit it reads at 2N.  x is drawn with random digits to 2N
    (prng.random_unit), at shifts -5..5, and its literal is str(x) without
    the O-term; the variants scale each term by a rational a/b, add a term
    p^-k of negative valuation, and, over an unramified field, add
    r * g^b with an exponent b of 20 to 40 digits."""

    @staticmethod
    def variants(rng, x):
        field, p = x.field, x.field.p
        text = str(x).rsplit(" + O(pi^", 1)[0]
        terms = re.split(r" \+ (?![^()]*\))", text)   # at " + " outside parentheses
        a = rng.choice([1, rng.randint(2, 10 ** 6), p ** rng.randint(1, 5)])
        b = rng.choice([rng.randint(2, 10 ** 6), p ** rng.randint(1, 5), p ** rng.randint(1, 3) * 7])
        yield text
        yield " + ".join(f"{a}/{b}*{t}" for t in terms)
        yield f"{text} - {p}^-{rng.randint(1, 12)}"
        if field.kind == "unramified":
            yield f"{text} + {a}/{b}*g^{rng.randint(10 ** 19, 10 ** 40)}"

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_claimed_digits_survive_doubling(self, name):
        field = KINDS[name]
        rng = stream(43, "doubled-literals", name)
        for _ in range(60):
            N, shift = rng.randint(1, 60), rng.randint(-5, 5)
            x = PadicElement(field, shift, random_unit(rng, field, 2 * N).coeffs, 2 * N + shift)
            for text in self.variants(rng, x):
                got, ref = parse_element(text, field, N), parse_element(text, field, 2 * N)
                assert got.abs_prec == N and ref.abs_prec == 2 * N, text
                assert got == ref.truncate(N), (text, N)
