import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_tate import field as field_mod
from padic_tate.errors import (
    DivisionByImpreciseZero,
    FieldMismatch,
    InsufficientPrecision,
    NonUnitEisensteinConstant,
    NotPrime,
    ReducibleDefiningPolynomial,
    ZeroElement,
)
from padic_tate.field import (
    PadicElement,
    ValuationResult,
    arithmetic,
    invert,
    make_field,
    rv_class,
    valuation,
)
from padic_tate.prng import random_element, random_unit, stream
from padic_tate.series import p_exp, p_log

import oracles
from oracles import _moduli, first_irreducible_mod_p, from_fraction, vp_int
from strategies import FIELDS, elements, int_operands


class TestMakeField:
    def test_base(self):
        f = make_field(5)
        assert (f.p, f.e, f.f) == (5, 1, 1)

    def test_eisenstein_boundary(self):
        f = make_field(5, "eisenstein", e=4, c=-1)
        # v(pi) = 1/e = 1/(p-1)
        assert f.e == f.p - 1 == 4

    def test_eisenstein_degree_capped(self):
        # every element holds e coefficients and products cost O(e^2)
        assert make_field(5, "eisenstein", e=64).e == 64
        with pytest.raises(ValueError, match="ramification index <= 64"):
            make_field(5, "eisenstein", e=10 ** 8)

    def test_unramified(self):
        f = make_field(2, "unramified", poly=[1, 1, 1])
        assert f.f == 2 and f.e == 1

    def test_unramified_reducible_rejected(self):
        # x^2 + 1 = (x+1)^2 mod 2
        with pytest.raises(ReducibleDefiningPolynomial):
            make_field(2, "unramified", poly=[1, 0, 1])

    def test_unramified_rootless_reducible_rejected(self):
        # x^5 + x^4 + 1 = (x^2+x+1)(x^3+x+1) mod 2 has no root, so only the
        # check x^(p^f) = x mod g rejects it
        with pytest.raises(ReducibleDefiningPolynomial):
            make_field(2, "unramified", poly=[1, 0, 0, 0, 1, 1])

    def test_unramified_exhaustive_root_check(self):
        # independent check: x^2 + x + 1 has no root mod 2 and no
        # degree-1 monic factor
        poly = [1, 1, 1]
        assert all((poly[0] + poly[1] * r + poly[2] * r * r) % 2 for r in range(2))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_unramified_search_matches_brute_force(self, p):
        for f in (2, 3, 4):
            poly = make_field(p, "unramified", f=f).residue_poly
            assert poly == first_irreducible_mod_p(p, f)

    @pytest.mark.parametrize("p", [1000003, 10**18 + 3])
    def test_unramified_large_prime(self, p):
        start = time.perf_counter()
        quadratic = make_field(p, "unramified", f=2).residue_poly
        assert make_field(p, "unramified", f=3).f == 3
        assert time.perf_counter() - start < 1.0
        # x^2 + 1 is the first candidate not divisible by x, and it is
        # irreducible because -1 is a non-square modulo p = 3 mod 4
        assert p % 4 == 3 and quadratic == (1, 0, 1)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_field(6)

    @pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1])
    def test_large_prime(self, p):
        assert make_field(p).p == p

    # 3825123056546413051 is a strong pseudoprime to every prime base <= 31
    @pytest.mark.parametrize("n", [2047, 561, 3825123056546413051])
    def test_pseudoprime_rejected(self, n):
        with pytest.raises(NotPrime):
            make_field(n)

    def test_primality_beyond_the_exact_range_is_refused(self):
        with pytest.raises(ValueError):
            make_field(3317044064679887385961981)

    def test_eisenstein_bad_constant(self):
        with pytest.raises(NonUnitEisensteinConstant):
            make_field(5, "eisenstein", e=2, c=10)


class TestArithmeticExamples:
    def test_add_integers(self, Q5):
        a = PadicElement.from_int(Q5, 5, 12)
        b = PadicElement.from_int(Q5, 20, 12)
        c = arithmetic("add", a, b)
        assert c.is_indistinguishable(PadicElement.from_int(Q5, 25, 12))
        assert c.valuation() == ValuationResult("exact", Fraction(2))

    def test_uniformizer_square(self, E54):
        pi = PadicElement.uniformizer(E54, 20)
        assert (pi * pi).valuation() == ValuationResult("exact", Fraction(1, 2))

    def test_geometric_series_division(self, Q5):
        # 1/(1-5) against the partial geometric sum, frozen: 3906 mod 5^6
        one = PadicElement.one(Q5, 6)
        den = PadicElement.from_int(Q5, -4, 6)
        q = arithmetic("div", one, den)
        assert sum(5 ** i for i in range(6)) == 3906
        assert q.is_indistinguishable(PadicElement.from_int(Q5, 3906, 6))

    def test_field_mismatch(self, Q5, Q3):
        a = PadicElement.one(Q5, 5)
        b = PadicElement.one(Q3, 5)
        with pytest.raises(FieldMismatch):
            arithmetic("add", a, b)
        c = PadicElement.one(make_field(7), 5)
        for op in ("add", "sub", "mul", "div"):
            with pytest.raises(FieldMismatch):
                arithmetic(op, a, c)

    @pytest.mark.parametrize("kind, kwargs", [
        ("base", {}), ("eisenstein", {"e": 4, "c": -1}), ("unramified", {"f": 2})])
    def test_equal_descriptors_interoperate(self, kind, kwargs):
        # separate make_field calls give equal, not identical, descriptors
        a, b = make_field(5, kind, **kwargs), make_field(5, kind, **kwargs)
        assert a is not b and a == b
        x = random_element(stream(0, "interop", kind), a, 12, 0, 3)
        y = random_element(stream(1, "interop", kind), b, 12, 0, 3)
        y_a = PadicElement(a, y.shift, y.coeffs, y.abs_prec)
        for op in ("add", "sub", "mul", "div"):
            assert arithmetic(op, x, y) == arithmetic(op, x, y_a)

    def test_division_by_imprecise_zero(self, Q5):
        a = PadicElement.one(Q5, 8)
        z = PadicElement.zero(Q5, 8)
        with pytest.raises(DivisionByImpreciseZero):
            arithmetic("div", a, z)


class TestInvert:
    def test_identity(self, Q5):
        one = PadicElement.one(Q5, 9)
        assert invert(one).is_indistinguishable(one)

    def test_invert_two_frozen(self, Q5):
        # 1/2 mod 5^4 = 313, the modular inverse
        assert pow(2, -1, 5 ** 4) == 313
        got = invert(PadicElement.from_int(Q5, 2, 4))
        assert got.is_indistinguishable(PadicElement.from_int(Q5, 313, 4))

    def test_invert_uniformizer(self, E54):
        pi = PadicElement.uniformizer(E54, 16)
        ip = invert(pi)
        assert ip.valuation() == ValuationResult("exact", Fraction(-1, 4))
        assert (pi * ip - 1).is_zero

    def test_round_trip_random_units(self, Q5, E54, U22):
        for field in (Q5, E54, U22):
            for i in range(25):
                u = random_unit(stream(11, field.kind, i), field, 24)
                residual = u * invert(u) - 1
                assert residual.is_zero, (field.kind, i)


class TestValuation:
    def test_v_p(self, Q5):
        assert valuation(PadicElement.from_int(Q5, 5, 10)) == \
            ValuationResult("exact", Fraction(1))

    def test_imprecise_zero(self, Q5):
        assert valuation(PadicElement.zero(Q5, 10)) == \
            ValuationResult("at_least", Fraction(10))

    def test_uniformizer_cube(self, E54):
        v = valuation(PadicElement.uniformizer(E54, 20, power=3))
        assert v == ValuationResult("exact", Fraction(3, 4))


class TestRV:
    def test_reflexive(self, Q5):
        x = PadicElement.from_int(Q5, 35, 10)
        assert rv_class(x, 0) == rv_class(x, 0)

    def test_equal_classes(self, Q5):
        x = PadicElement.from_int(Q5, 5, 10)
        y = PadicElement.from_int(Q5, 30, 10)
        # v(x - y) = 2 > v(x) + 0 = 1
        assert (x - y).valuation().value == 2
        assert rv_class(x, 0) == rv_class(y, 0)

    def test_distinct_classes(self, Q5):
        x = PadicElement.from_int(Q5, 5, 10)
        y = PadicElement.from_int(Q5, 10, 10)
        assert rv_class(x, 0) != rv_class(y, 0)

    def test_zero_rejected(self, Q5):
        with pytest.raises(ZeroElement):
            rv_class(PadicElement.zero(Q5, 5), 0)

    def test_insufficient_precision(self, Q5):
        x = PadicElement.from_int(Q5, 5, 3)
        with pytest.raises(InsufficientPrecision):
            rv_class(x, 4)

    def test_criterion_random(self, Q5, E54):
        # class equality iff v(x-y) > v(x) + lambda, over seeded triples
        for field in (Q5, E54):
            for i in range(200):
                rng = stream(23, "rv", field.kind, i)
                x = random_element(rng, field, 20, 0, 4)
                y = random_element(rng, field, 20, 0, 4)
                lam = Fraction(rng.randint(0, 2 * field.e), field.e)
                diff = (x - y).valuation()
                expected = diff.value > x.valuation().value + lam
                if not diff.is_exact and not expected:
                    continue        # undecidable at this precision
                assert (rv_class(x, lam) == rv_class(y, lam)) == expected


class TestPrecision:
    def test_add_precision_rule(self, Q5):
        a = PadicElement.from_int(Q5, 7, 10)
        b = PadicElement.from_int(Q5, 9, 6)
        assert (a + b).abs_prec == 6

    def test_mul_precision_rule(self, Q5):
        a = PadicElement.from_int(Q5, 25, 10)      # shift 2
        b = PadicElement.from_int(Q5, 5, 7)        # shift 1
        assert (a * b).abs_prec == min(10 + 1, 7 + 2)

    @pytest.mark.parametrize("name", ["Q5", "E54", "U22"])
    def test_add_skips_summand_beyond_precision(self, request, monkeypatch, name):
        # y vanishes modulo pi^prec, so x + y is x truncated to prec and y is
        # never multiplied out by pi^(shift gap)
        field = request.getfixturevalue(name)
        pairs = []
        for i in range(20):
            rng = stream(11, "add-skip", name, i)
            x = random_element(rng, field, 20, 0, 3)
            y = random_element(rng, field, 80, 20, 40)
            gap = field_mod._shift_vec(field, y.coeffs, y.shift - x.shift)
            full = field_mod._make(field, x.shift,
                                   [a + b for a, b in zip(x.coeffs, gap)], 20)
            pairs.append((x, y, full))
        calls = []
        shift_vec = field_mod._shift_vec

        def counting_shift_vec(*args):
            calls.append(args)
            return shift_vec(*args)

        monkeypatch.setattr(field_mod, "_shift_vec", counting_shift_vec)
        for x, y, full in pairs:
            assert x + y == y + x == x.truncate(20) == full
        assert calls == []

    def test_cancellation_gives_imprecise_zero(self, Q5):
        a = PadicElement.from_int(Q5, 7, 8)
        assert (a - a).is_zero
        assert (a - a).abs_prec == 8

    def test_doubled_precision_consistency(self, Q5, E54):
        # one digit stream, evaluated at N and 2N; truncations agree
        for field in (Q5, E54):
            for i in range(60):
                rng = stream(37, "prec", field.kind, i)
                inputs = (random_element(rng, field, 32, 0, 3),
                          random_element(rng, field, 32, 1, 4),
                          random_unit(rng, field, 32))

                def expr(x, y, z):
                    return (x + y) * z - x / z

                hi = expr(*inputs)
                lo = expr(*(v.truncate(16) for v in inputs))
                assert lo.is_indistinguishable(hi.truncate(lo.abs_prec))


def _reduce_by_moduli(field, vec, rel_prec):
    """vec reduced entry by entry modulo p^k, k from _moduli."""
    p = field.p
    return tuple(v % (p ** k) if k > 0 else 0
                 for v, k in zip(vec, _moduli(field, rel_prec)))


def _scale_through_inverse(x, value):
    """x * value with the denominator inverted by pow even when it is 1."""
    field = x.field
    if value == 0:
        return PadicElement.zero(field, x.abs_prec)
    num, den = value.numerator, value.denominator
    vn, vd = vp_int(num, field.p), vp_int(den, field.p)
    w, num, den = vn - vd, num // field.p ** vn, den // field.p ** vd
    shift = w * field.e
    if x.is_zero:
        return PadicElement.zero(field, x.abs_prec + shift)
    mod = field.p ** max(_moduli(field, x.rel_prec))
    unit = num * pow(den, -1, mod) % mod
    if field.kind == "eisenstein" and w:
        unit = unit * pow(field.eis_unit, -w, mod) % mod
    vec = _reduce_by_moduli(field, [unit * c for c in x.coeffs], x.rel_prec)
    return PadicElement(field, x.shift + shift, vec, x.abs_prec + shift)


class TestFastPathsMatchGeneralFormulas:
    @pytest.mark.parametrize("p, kind, kwargs", [
        (5, "base", {}), (2, "base", {}), (2, "unramified", {"f": 2}),
        (3, "unramified", {"f": 3}), (5, "eisenstein", {"e": 3, "c": 2}),
        (3, "eisenstein", {"e": 1, "c": 2})])
    def test_reduce_vec(self, p, kind, kwargs):
        field = make_field(p, kind, **kwargs)
        rng = stream(0, "reduce-vec", p, kind)
        bound = p ** 60
        for rel in range(-2, 51):
            for _ in range(8):
                vec = [rng.choice((0, rng.randrange(-bound, bound), rng.randrange(-p, p)))
                       for _ in range(field.coeff_len)]
                assert field_mod._reduce_vec(field, vec, rel) == _reduce_by_moduli(field, vec, rel)

    @pytest.mark.parametrize("p, kind, kwargs", [
        (5, "base", {}), (2, "base", {}), (5, "eisenstein", {"e": 4, "c": -1}),
        (5, "eisenstein", {"e": 3, "c": 2}), (2, "unramified", {"f": 2}),
        (3, "unramified", {"f": 3})])
    def test_integer_scale(self, p, kind, kwargs):
        field = make_field(p, kind, **kwargs)
        xs = [random_element(stream(i, "int-scale", p, kind), field, 20, 0, 4)
              for i in range(6)] + [PadicElement.zero(field, 20)]
        for x in xs:
            for m in (0, 1, -1, 3 * p ** 2, -p, p + 1, -(p + 1)):
                got = x * m
                want = _scale_through_inverse(x, Fraction(m))
                assert (got.shift, got.coeffs, got.abs_prec) == \
                    (want.shift, want.coeffs, want.abs_prec)
                assert got == x * Fraction(m) == m * x


# every kind, eisenstein e = 1 with pi = 2p included, and an explicit
# poly= whose integer coefficients are not reduced mod p
KERNEL_FIELDS = [
    (2, "base", {}), (5, "base", {}),
    (3, "eisenstein", {"e": 1, "c": 2}), (5, "eisenstein", {"e": 2, "c": 1}),
    (5, "eisenstein", {"e": 3, "c": 2}), (5, "eisenstein", {"e": 4, "c": -1}),
    (2, "unramified", {"f": 2}), (3, "unramified", {"f": 3}),
    (5, "unramified", {"poly": (7, -4, 1)})]


def _raw_vectors(rng, field, count):
    """Unreduced vectors: zeros, small entries of both signs and big ones."""
    p, bound = field.p, field.p ** 60
    return [[rng.choice((0, rng.randrange(-p, p), rng.randrange(-bound, bound)))
             for _ in range(field.coeff_len)] for _ in range(count)]


@pytest.mark.parametrize("p, kind, kwargs", KERNEL_FIELDS)
class TestKernelsMatchPerKindReference:
    """The one coefficient-kernel set against the per-kind kernels it
    replaced (oracles.kind_*), on seeded inputs."""

    def test_reduce_and_valuation(self, p, kind, kwargs):
        field = make_field(p, kind, **kwargs)
        rng = stream(1, "kernel-reduce", p, kind, *kwargs.values())
        for vec in _raw_vectors(rng, field, 12) + [[0] * field.coeff_len]:
            for rel in range(-2, 31):
                want = oracles.kind_reduce_vec(field, vec, rel)
                assert field_mod._reduce_vec(field, vec, rel) == want
                assert field_mod._vec_val(field, want) == oracles.kind_vec_val(field, want)

    def test_shift(self, p, kind, kwargs):
        field = make_field(p, kind, **kwargs)
        rng = stream(1, "kernel-shift", p, kind, *kwargs.values())
        for vec in _raw_vectors(rng, field, 10):
            for k in range(0, 9):
                assert field_mod._shift_vec(field, vec, k) == oracles.kind_shift_vec(field, vec, k)
            # valuation >= 8, so every shift down to pi^-8 is exact
            deep = oracles.kind_shift_vec(field, vec, 8)
            for k in range(-8, 0):
                for work in (1, 4, 25):
                    assert field_mod._shift_vec(field, deep, k, work) == \
                        oracles.kind_shift_vec(field, deep, k, work)

    def test_mul_and_residue_inverse(self, p, kind, kwargs):
        field = make_field(p, kind, **kwargs)
        rng = stream(1, "kernel-mul", p, kind, *kwargs.values())
        vecs = _raw_vectors(rng, field, 12)
        for a, b in zip(vecs, vecs[1:]):
            assert field_mod._vec_mul(field, a, b) == oracles.kind_vec_mul(field, a, b)
        for _ in range(12):
            unit = random_unit(rng, field, 20).coeffs
            assert field_mod._residue_inverse(field, unit) == \
                oracles.kind_residue_inverse(field, unit)

    def test_digits(self, p, kind, kwargs):
        field = make_field(p, kind, **kwargs)
        rng = stream(1, "kernel-digits", p, kind, *kwargs.values())
        for _ in range(12):
            # leading zero digits included: from_pi_digits renormalises
            prec, shift = rng.randrange(1, 30), rng.randrange(-5, 6)
            digits = [rng.randrange(p) if field.f == 1 else
                      tuple(rng.randrange(p) for _ in range(field.f))
                      for _ in range(rng.randrange(0, 25))]
            got = PadicElement.from_pi_digits(field, shift, digits, prec)
            assert _triple(got) == _triple(oracles.kind_from_pi_digits(field, shift, digits, prec))
            x = random_element(rng, field, prec + 1, -3, min(prec, 3))
            assert x.pi_digits(x.rel_prec) == oracles.kind_pi_digits(x, x.rel_prec)


@pytest.mark.parametrize("p", [2, 5])
def test_eisenstein_e1_c1_is_qp(p):
    """x^1 - 1*p defines Q_p itself: every operation gives the same triple
    and the same printed digits as over make_field(p)."""
    qp, e11 = make_field(p), make_field(p, "eisenstein", e=1, c=1)
    for i in range(12):
        results = []
        for field in (qp, e11):
            # the same stream draws the same digits in both fields
            rng = stream(2, "e1c1", p, i)
            x = random_element(rng, field, 24, -2, 3)
            y = random_element(rng, field, 20, 0, 2)
            small = random_element(rng, field, 24, 2, 4)      # v > 1/(p-1)
            results.append([x + y, x - y, x * y, x / y, p_exp(small), p_log(1 + small)])
        for a, b in zip(*results):
            assert _triple(a) == _triple(b)
            assert str(a) == str(b)


def _triple(x):
    return x.shift, x.coeffs, x.abs_prec


def _operand_elements(name, field):
    """Shifts -3..3 at several precisions (abs_prec <= 0 included), and
    imprecise zeros."""
    rng = stream(3, "operand-rule", name)
    xs = [random_element(rng, field, prec, shift, shift)
          for shift in range(-3, 4) for prec in (shift + 1, shift + 5, 12)]
    return xs + [PadicElement.zero(field, prec) for prec in (-2, 0, 3, 12)]


def _scalars(p):
    return (0, 1, -1, p, -p, p ** 40, Fraction(1, p), Fraction(3, p ** 2))


class TestOperandRule:
    """An int or Fraction operand is exact: x + m keeps x's precision and
    m / x keeps x's relative precision."""

    @pytest.mark.parametrize("name", ["Q5", "Q2", "E54", "U22"])
    def test_scalar_sum_matches_guessed_precision(self, request, name):
        # a sum keeps min(abs_prec), so an operand built at
        # abs_prec + |shift| + 8 carries only digits the sum drops
        field = request.getfixturevalue(name)
        for x in _operand_elements(name, field):
            for m in _scalars(field.p):
                c = PadicElement.from_rational(field, m, x.abs_prec + abs(x.shift) + 8)
                assert _triple(x + m) == _triple(m + x) == _triple(x + c)
                assert _triple(x - m) == _triple(x - c)
                assert _triple(m - x) == _triple(c - x)

    @pytest.mark.parametrize("name", ["Q5", "Q2", "E54", "U22"])
    def test_scalar_over_element(self, request, name):
        field = request.getfixturevalue(name)
        for x in _operand_elements(name, field):
            if x.is_zero:
                continue
            for m in _scalars(field.p):
                got = m / x
                assert _triple(got) == _triple(x.invert() * m)
                if m == 0:
                    # like x * 0, a zero at the precision of the inverse
                    assert _triple(got) == _triple(PadicElement.zero(field, got.abs_prec))
                    continue
                guessed = x.invert() * PadicElement.from_rational(
                    field, m, x.abs_prec + abs(x.shift) + 8)
                assert got.abs_prec >= guessed.abs_prec
                assert _triple(got.truncate(guessed.abs_prec)) == _triple(guessed)

    def test_scalar_over_element_keeps_relative_precision(self, Q5):
        x = PadicElement.one(Q5, 10)
        assert str(5 ** 12 / x) == "pi^12 + O(pi^22)"
        assert str(x.invert() * PadicElement.from_int(Q5, 5 ** 12, 18)) == "pi^12 + O(pi^18)"
        with pytest.raises(TypeError):
            [1] / x


UNRAMIFIED_INVERSE_FIELDS = [(p, f) for p in (2, 3, 7, 1000003, 10**18 + 3)
                             for f in (2, 3, 5, 8)]


class TestResidueInverse:
    @pytest.mark.parametrize("p, f", UNRAMIFIED_INVERSE_FIELDS)
    def test_inverse_times_residue_is_one(self, p, f):
        field = make_field(p, "unramified", f=f)
        rng = stream(5, "residue-inverse", p, f)
        one = [1] + [0] * (f - 1)
        for _ in range(20):
            # residues of low degree included, and entries far beyond p
            top = rng.randrange(1, f + 1)
            a = [rng.randrange(p ** 3) for _ in range(top)] + [0] * (f - top)
            if not any(x % p for x in a):
                continue
            inv = field_mod._residue_inverse(field, a)
            assert len(inv) == f and all(0 <= x < p for x in inv)
            assert [x % p for x in field_mod._vec_mul(field, a, inv)] == one

    def test_no_inverse_shares_a_factor(self):
        # (x - 1)(x + 1) = x^2 - 1 over F_7: x - 1 has no inverse, x has one
        g = [6, 0, 1]
        assert field_mod._poly_inverse([6, 1], g, 7) is None
        assert field_mod._poly_inverse([0], g, 7) is None
        assert field_mod._poly_inverse([0, 1], g, 7) == [0, 1]


class TestSeededProperties:
    def test_ultrametric_1000(self, Q5):
        for i in range(1000):
            rng = stream(41, "ultra", i)
            a = random_element(rng, Q5, 18, 0, 5)
            b = random_element(rng, Q5, 18, 0, 5)
            va, vb = a.valuation().value, b.valuation().value
            vsum = (a + b).valuation()
            assert vsum.value >= min(va, vb)
            if va != vb:
                assert vsum.is_exact and vsum.value == min(va, vb)

    def test_multiplicativity(self, Q5, E54, U22):
        for field in (Q5, E54, U22):
            for i in range(200):
                rng = stream(43, "mulv", field.kind, i)
                a = random_element(rng, field, 18, 0, 4)
                b = random_element(rng, field, 18, 0, 4)
                v = (a * b).valuation()
                assert v.is_exact
                assert v.value == a.valuation().value + b.valuation().value


@st.composite
def rationals(draw):
    num = draw(st.integers(min_value=-10 ** 6, max_value=10 ** 6))
    den = draw(st.integers(min_value=1, max_value=10 ** 4))
    return Fraction(num, den)


class TestAgainstRationalOracle:
    @given(x=rationals(), y=rationals())
    @settings(max_examples=150, deadline=None)
    def test_ring_ops_match_reduction(self, x, y):
        field = make_field(5)
        prec = 14
        ex = PadicElement.from_rational(field, x, prec)
        ey = PadicElement.from_rational(field, y, prec)
        for op, fn in (("add", lambda: x + y), ("sub", lambda: x - y),
                       ("mul", lambda: x * y)):
            got = arithmetic(op, ex, ey)
            want = from_fraction(field, fn(), got.abs_prec)
            assert got.is_indistinguishable(want), op

    @given(x=rationals())
    @settings(max_examples=100, deadline=None)
    def test_from_rational_matches_independent_constructor(self, x):
        field = make_field(5)
        lib = PadicElement.from_rational(field, x, 12)
        ora = from_fraction(field, x, 12)
        assert lib.is_indistinguishable(ora)

    @given(x=rationals())
    @settings(max_examples=80, deadline=None)
    def test_valuation_matches_vp(self, x):
        if x == 0:
            return
        field = make_field(5)
        v = PadicElement.from_rational(field, x, 20).valuation()
        want = vp_int(x.numerator, 5) - vp_int(x.denominator, 5)
        if want < 20:
            assert v == ValuationResult("exact", Fraction(want))


def key(x: PadicElement):
    return x.shift, x.coeffs, x.abs_prec


class TestOnePassOperands:
    """a - b and an int operand each take one reduction, with the same
    canonical result as the two-step paths they replace."""

    @given(data=st.data(), name=st.sampled_from(sorted(FIELDS)))
    @settings(max_examples=200, deadline=None)
    def test_sub_matches_add_of_negation(self, data, name):
        field = FIELDS[name]
        a, b = data.draw(elements(field)), data.draw(elements(field))
        assert key(a - b) == key(a + (-b))
        assert key(b - a) == key(b + (-a))
        assert key(a - a) == key(a + (-a))

    @given(data=st.data(), name=st.sampled_from(sorted(FIELDS)))
    @settings(max_examples=200, deadline=None)
    def test_int_operand_matches_from_rational(self, data, name):
        field = FIELDS[name]
        x = data.draw(elements(field))
        m = data.draw(int_operands(field.p))

        def exact(n):
            return PadicElement.from_rational(field, n, x.abs_prec)
        assert key(x + m) == key(m + x) == key(x + exact(m))
        assert key(x - m) == key(x + exact(-m))
        assert key(m - x) == key(exact(m) + (-x))

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of __neg__, __add__ and from_rational calls."""
        count = {}

        def counting(name, fn):
            def wrapped(*args):
                count[name] = count.get(name, 0) + 1
                return fn(*args)
            return wrapped
        for name in ("__neg__", "__add__"):
            monkeypatch.setattr(PadicElement, name, counting(name, getattr(PadicElement, name)))
        monkeypatch.setattr(PadicElement, "from_rational",
                            staticmethod(counting("from_rational", PadicElement.from_rational)))
        return count

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_one_pass_counts(self, calls, name):
        field = FIELDS[name]
        a = PadicElement.from_pi_digits(field, 0, [2, 3, 1, 4], 6)
        b = PadicElement.from_pi_digits(field, 1, [1, 1, 2], 7)
        zero = PadicElement.zero(field, 5)
        calls.clear()
        diffs = [a - b, b - a, a - zero, zero - a, a - 3, 3 - a, a - 0, a - 25]
        assert calls == {}
        sums = [a + 3, 3 + a, a + 0, a + 25]
        assert set(calls) == {"__add__"}
        assert diffs[0] == -diffs[1] and diffs[4] == -diffs[5] and sums[0] == sums[1]

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_int_operand_reduces_once(self, monkeypatch, fractions_built, name):
        field = FIELDS[name]
        a = PadicElement.from_pi_digits(field, -1, [2, 3, 1, 4], 6)
        count = [0]
        make = field_mod._make

        def counting_make(*args):
            count[0] += 1
            return make(*args)

        monkeypatch.setattr(field_mod, "_make", counting_make)
        for op in (lambda: a + 7, lambda: a - 7, lambda: 7 - a, lambda: 7 + a):
            count[0] = 0
            assert fractions_built(op)[0] == 0 and count[0] == 1


class TestDisplay:
    def test_canonical_digits(self, Q5):
        x = PadicElement.from_int(Q5, 26, 10)
        assert str(x) == "1 + pi^2 + O(pi^10)"

    def test_zero(self, Q5):
        assert str(PadicElement.zero(Q5, 7)) == "O(pi^7)"

    def test_negative_shift(self, Q5):
        x = PadicElement.from_rational(Q5, Fraction(1, 25), 3)
        assert str(x) == "pi^-2 + O(pi^3)"
