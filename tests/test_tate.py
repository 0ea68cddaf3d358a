import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from padic_tate import field as field_mod, tate as tate_mod
from padic_tate.dual import DualElement
from padic_tate.errors import (
    FieldMismatch,
    ImpreciseValuation,
    InsufficientPrecision,
    NonpositiveValuation,
    OnKernel,
    PadicError,
    ZeroElement,
)
from padic_tate.field import PadicElement, make_field
from padic_tate.prng import random_unit, stream
from padic_tate.tate import (
    TatePoint,
    a6_coefficient,
    curve_add,
    curve_coefficients,
    curve_discriminant,
    curve_equation_residual,
    curve_neg,
    j_invariant,
    phi,
    point_difference_valuation,
    reduce_to_fundamental,
    relation_residual,
    s_k,
    tate_series_point,
    tate_xy_with_derivative,
    verify_ode,
)

from oracles import (
    discriminant_pentagonal,
    from_fraction,
    j_from_q_expansion,
    lambert_stepwise,
    s_k_partial_sum,
    series_point_stepwise,
    tate_xy,
    xy_with_derivative_stepwise,
)
from strategies import FIELDS, units


@pytest.fixture(scope="module")
def curve25(Q5):
    q = PadicElement.from_int(Q5, 25, 40)
    return curve_coefficients(q)


@pytest.fixture
def makes(count_calls):
    """counted(call) -> (Counter of every _make call, result)."""
    return count_calls((field_mod, "_make"))


class TestSk:
    def test_below_precision_floor(self, Q5):
        q = PadicElement.from_int(Q5, 5 ** 9, 8)
        assert s_k(q, 1).is_zero

    def test_s1_frozen(self, Q5):
        # sum_{n<=8} n 5^n/(1-5^n) mod 5^8 = 5 * 10991
        got = s_k(PadicElement.from_int(Q5, 5, 8), 1)
        assert got.is_indistinguishable(PadicElement.from_int(Q5, 5 * 10991, 8))
        want = from_fraction(Q5, s_k_partial_sum(Fraction(5), 1, 8), 8)
        assert got.is_indistinguishable(want)

    def test_s3_first_term(self, Q5):
        # s_3(q) = q/(1-q) + O(q^2) = q + O(q^2)
        q = PadicElement.from_int(Q5, 25, 12)
        assert (s_k(q, 3) - q).valuation().at_least(Fraction(4))

    def test_rejects_nonpositive_valuation(self, Q5):
        with pytest.raises(NonpositiveValuation):
            s_k(PadicElement.from_int(Q5, 7, 10), 3)


class TestCurveCoefficients:
    def test_termwise_integrality(self):
        for n in range(1, 1001):
            assert (5 * n ** 3 + 7 * n ** 5) % 12 == 0
            a6_coefficient(n)

    def test_a4_frozen(self, Q5):
        # -5 s_3(5) mod 5^8 = 25 * 14504
        q = PadicElement.from_int(Q5, 5, 8)
        a4 = curve_coefficients(q).a4
        assert a4.is_indistinguishable(PadicElement.from_int(Q5, 25 * 14504, 8))
        want = from_fraction(Q5, -5 * s_k_partial_sum(Fraction(5), 3, 8), 8)
        assert a4.is_indistinguishable(want)

    def test_coefficient_valuations(self):
        from padic_tate.field import make_field
        for p, qv in ((2, 4), (3, 9), (5, 5), (7, 7)):
            field = make_field(p)
            q = PadicElement.from_int(field, qv, 30)
            curve = curve_coefficients(q)
            assert curve.a4.valuation().at_least(q.valuation().value)
            assert curve.a6.valuation().at_least(q.valuation().value)

    def test_discriminant_valuation(self, curve25):
        v = curve_discriminant(curve25).valuation()
        assert v.is_exact and v.value == 2


class TestReduction:
    def test_already_reduced(self, curve25, Q5):
        u = PadicElement.from_int(Q5, 7, 30)
        red, n = reduce_to_fundamental(curve25.q, u)
        assert n == 0 and red.is_indistinguishable(u)

    def test_kernel_power(self, curve25):
        red, n = reduce_to_fundamental(curve25.q, curve25.q ** 3)
        assert n == 3 and (red - 1).is_zero

    def test_floor_division(self, curve25, Q5):
        u = PadicElement.from_int(Q5, 5 ** 7, 40)
        red, n = reduce_to_fundamental(curve25.q, u)
        assert n == 3
        assert red.valuation().value == 1


# (p, q, u, prec, X.abs_prec, Y.abs_prec); u = 6 over Q_5 and u = 3 over Q_2
# sit one digit off the kernel, v(1-u) = 1
SERIES_CASES = [
    (5, 25, 5, 40, 39, 39), (5, 25, 6, 40, 37, 36), (5, 25, 7, 40, 40, 40),
    (5, 25, 5, 160, 159, 159), (5, 25, 6, 160, 157, 156), (5, 25, 7, 160, 160, 160),
    (2, 4, 2, 40, 39, 39), (2, 4, 3, 40, 37, 36), (2, 4, 5, 40, 34, 32),
    (2, 4, 2, 160, 159, 159), (2, 4, 3, 160, 157, 156), (2, 4, 5, 160, 154, 152),
    # v(u) = v(q) - 1, so the series runs to the last term, dmax = prec
    (5, 125, 50, 40, 38, 38),
]

# unit parts frozen from the exact-rational truncated sums
FROZEN_XY = {(5, 25, 5, 40): (1244001341213061294116064212, 1196988732939325828772046019)}


class TestSeriesPoint:
    @pytest.mark.parametrize(
        "p, q, u, prec, x_prec, y_prec", SERIES_CASES,
        ids=[f"Q{c[0]}-q{c[1]}-u{c[2]}-prec{c[3]}" for c in SERIES_CASES])
    def test_divisor_oracle(self, p, q, u, prec, x_prec, y_prec):
        field = make_field(p)
        curve = curve_coefficients(PadicElement.from_int(field, q, prec))
        X, Y = tate_series_point(curve, PadicElement.from_int(field, u, prec))
        assert (X.abs_prec, Y.abs_prec) == (x_prec, y_prec)
        Xo, Yo = tate_xy(Fraction(q), Fraction(u), prec + 5)
        assert X.is_indistinguishable(from_fraction(field, Xo, prec))
        assert Y.is_indistinguishable(from_fraction(field, Yo, prec))
        if (p, q, u, prec) in FROZEN_XY:
            x_unit, y_unit = FROZEN_XY[p, q, u, prec]
            assert X.is_indistinguishable(PadicElement(field, 1, (x_unit,), prec))
            assert Y.is_indistinguishable(PadicElement(field, 1, (y_unit,), prec))

    def test_on_curve(self, curve25, Q5):
        X, Y = tate_series_point(curve25, PadicElement.from_int(Q5, 7, 40))
        res = Y * Y + X * Y - X ** 3 - curve25.a4 * X - curve25.a6
        assert res.valuation().at_least(Fraction(30))

    def test_kernel_rejected(self, curve25, Q5):
        with pytest.raises(OnKernel):
            tate_series_point(curve25, PadicElement.one(Q5, 40))
        # an unreduced representative of 1 + O(5^40): v(1 - u) = 50 is past
        # what u is known to
        with pytest.raises(OnKernel):
            tate_series_point(curve25, PadicElement(Q5, 0, (1 + 5 ** 50,), 40))


class TestLambertWeights:
    """What a curve keeps for its points in place of the Lambert weights
    q^m/(1-q^m): s_1(q), summed with a4 and a6, and the memo.  A point
    inverts two unit vectors, u's and theta's, on a fresh curve and a warm
    one, and a curve that has made points gives what a fresh one gives."""

    @pytest.fixture
    def inversions(self, count_calls):
        return count_calls((PadicElement, "invert"), (tate_mod, "_vec_invert"))

    def test_inversion_counts(self, inversions, Q5):
        q = PadicElement.from_int(Q5, 25, 40)
        # a4, a6 and s_1 are power series in q: no inversion
        n, curve = inversions(lambda: curve_coefficients(q))
        assert n.total() == 0 and inversions(lambda: s_k(q, 5))[0].total() == 0
        for u in (PadicElement.from_int(Q5, n, 40) for n in (7, 35, 35, 7)):
            assert inversions(lambda: phi(curve, u))[0] == {"_vec_invert": 2}

    @pytest.mark.parametrize("order", [(7, 50), (50, 7)], ids=["v0-first", "v2-first"])
    def test_shared_weights_match_fresh_curve(self, Q5, order):
        q = PadicElement.from_int(Q5, 125, 40)
        curve = curve_coefficients(q)
        for u in order:
            phi(curve, PadicElement.from_int(Q5, u, 40))
        for u in (PadicElement.from_int(Q5, n, 40) for n in order):
            assert phi(curve, u) == phi(curve_coefficients(q), u)
            assert (tate_xy_with_derivative(curve, u)
                    == tate_xy_with_derivative(curve_coefficients(q), u))
        fresh = curve_coefficients(q)
        assert key(curve.s1) == key(fresh.s1) == key(s_k(q, 1))
        assert curve == fresh and hash(curve) == hash(fresh)
        assert "s1" not in repr(curve) and repr(curve) == repr(fresh)


def key(x):
    """Everything that equality of results compares, spelled out."""
    return x.shift, x.coeffs, x.abs_prec


def outcome(call):
    """key(call()), or the type of the library error it raises."""
    try:
        out = call()
    except PadicError as exc:
        return type(exc)
    return tuple(key(x) for x in out) if isinstance(out, tuple) else key(out)


def a4_a6(q):
    curve = curve_coefficients(q)
    return curve.a4, curve.a6


@st.composite
def tate_inputs(draw):
    """(q, target) over one of FIELDS, v(q) in 1..3."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    target = draw(st.integers(4, 24))
    sq = draw(st.integers(1, 3))
    unit = draw(units(field, target))
    q = unit * PadicElement.uniformizer(field, target + sq, sq)
    return q, target


class TestFusedLambert:
    """Each coordinate of a point, and each of a4, a6 and s_k, is reduced
    once, and agrees with the term-by-term Lambert sums (tests/oracles.py)
    in shift, coefficients and precision."""

    @pytest.mark.parametrize("dual", [False, True], ids=["element", "dual"])
    def test_other_field_raises_before_weights(self, count_calls, Q5, dual):
        # the field check comes before the theta sums and leaves no memo
        curve = curve_coefficients(PadicElement.from_int(Q5, 25, 40))
        alien = PadicElement.from_int(make_field(7), 3, 40)
        point = tate_xy_with_derivative if dual else tate_series_point
        counted = count_calls((tate_mod, "_theta_sums"))
        calls, _ = counted(lambda: pytest.raises(FieldMismatch, point, curve, alien))
        assert calls.total() == 0 and curve.memo == [None]

    @given(data=st.data(), inputs=tate_inputs(), near_one=st.booleans(),
           dual=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_series_point_matches_stepwise(self, data, inputs, near_one, dual):
        # u = 1 + pi^k v sits k digits off the kernel, where X's coefficient
        # m(u^m + u^-m - 2) has a higher valuation than its parts
        q, target = inputs
        field = q.field
        if near_one:
            k = data.draw(st.integers(1, max(1, target // 3)))
            u = data.draw(units(field, target)) * PadicElement.uniformizer(field, target, k) + 1
        else:
            shift = data.draw(st.integers(0, q.shift - 1))
            u = data.draw(units(field, target)) * PadicElement.uniformizer(field, target, shift)
        slack = data.draw(st.integers(0, 3))
        # a4, a6 and s_k are power series with no weight, so their wanted
        # values are the Lambert sums of the first ceil(N / v(q)) terms,
        # N = abs_prec(q), the last of them zero at pi^N
        N = q.abs_prec

        def stepwise(coeff):
            return lambert_stepwise(q, [], coeff, -(-N // q.shift), N)
        want = {"curve": (key((stepwise(lambda m: m ** 3) * (-5)).truncate(N)),
                          key(stepwise(lambda m: -a6_coefficient(m)))),
                "s_k": key(stepwise(lambda m: m ** 5))}
        # with dual, (X, Y, X') against the coefficient form on u + eps
        point, oracle = ((tate_xy_with_derivative, xy_with_derivative_stepwise) if dual
                         else (tate_series_point, series_point_stepwise))
        want["point"] = outcome(lambda: oracle(curve_coefficients(q), u, slack))
        got = {"curve": outcome(lambda: a4_a6(q)),
               "s_k": outcome(lambda: s_k(q, 5))}
        got["point"] = outcome(lambda: point(curve_coefficients(q), u, slack))
        assert got == want

    @pytest.mark.parametrize("n", [7, 35], ids=["v0", "v1"])
    def test_one_make_per_sum(self, makes, curve25, Q5, n):
        u = PadicElement.from_int(Q5, n, 40)
        # X and Y: one sum each, of the theta term and the multiple of s_1;
        # X' is a third (no memo entry for u, so it runs)
        assert makes(lambda: tate_series_point(curve25, u))[0].total() == 2
        curve25.memo[0] = None
        assert makes(lambda: tate_xy_with_derivative(curve25, u))[0].total() == 3
        # a4, a6 and s_1, and s_k alone
        assert makes(lambda: curve_coefficients(curve25.q))[0].total() == 3
        assert makes(lambda: s_k(curve25.q, 3))[0].total() == 1

    @pytest.mark.parametrize("n", [7, 35], ids=["v0", "v1"])
    def test_plain_point_is_one_pass(self, count_calls, curve25, Q5, n):
        u = PadicElement.from_int(Q5, n, 40)
        counted = count_calls((field_mod, "_make"), (PadicElement, "__mul__"),
                              (tate_mod, "_vec_mul"), (tate_mod, "_vec_invert"))
        # one _make for each of X and Y, none per term and none for 1 - u,
        # whose valuation is read from u's vector, and no element product.
        # Over Q_5 the theta chains run on ints, so the only vector products
        # are the 11 that combine the four sums and the powers of psi, the
        # inverse of theta's unit.  u's and theta's unit vectors are
        # inverted once each
        assert counted(lambda: tate_series_point(curve25, u))[0] == {
            "_make": 2, "_vec_mul": 11, "_vec_invert": 2}

    def test_chain_length_at_the_cap(self, count_calls):
        # at prec 4096 over Q_9 with v(q) = 2 and a unit u, K = 4096 keeps
        # the terms n = 1..64, n(n-1) < K, and -1..-63, k(k+1) < K: 127
        # terms, about 2 sqrt(2K / v(q)), two vector products each, one for
        # q u^-1 and 11 after the chains.  The Lambert pass summed
        # ceil(K / v(q)) = 2048 terms
        field = make_field(3, "unramified", f=2)
        curve = curve_coefficients(PadicElement.from_int(field, 9, 4096))
        u = PadicElement.from_int(field, 7, 4096)
        counted = count_calls((tate_mod, "_vec_mul"), (tate_mod, "_vec_invert"))
        assert counted(lambda: tate_series_point(curve, u))[0] == {
            "_vec_mul": 2 * 127 + 1 + 11, "_vec_invert": 2}

    def test_phi_builds_no_integer_operand(self, count_calls, curve25, Q5):
        us = [PadicElement.from_int(Q5, n, 40) for n in (7, 8, 6)]
        counted = count_calls((PadicElement, "from_rational"))
        assert counted(lambda: [phi(curve25, u) for u in us])[0].total() == 0


# the fields of the seeded point differential
POINT_FIELDS = {
    "Q2": make_field(2),
    "Q3": make_field(3),
    "Q5": make_field(5),
    "Q7": make_field(7),
    "Q1000003": make_field(1000003),
    "Q5(pi=10)": make_field(5, "eisenstein", e=1, c=2),
    "Q5(pi^2=5)": make_field(5, "eisenstein", e=2, c=1),
    "Q5(pi^4=-5)": make_field(5, "eisenstein", e=4, c=-1),
    "Q3(pi^3=6)": make_field(3, "eisenstein", e=3, c=2),
    "Q9": make_field(3, "unramified", f=2),
    "Q8": make_field(2, "unramified", f=3),
}


def point_cases(name):
    """(q, u) pairs over one field: v(q) = 1..5 with q known to 7..23 digits,
    and one more q of v(q) 1..5 known to 100..160; u at each valuation
    0..v(q)-1 and u = c + pi^k v for c = 1, -1, 2, 3 (near the kernel for
    c = 1, and u^2 = 1 mod pi for c = -1), u known ceil(N/2) and 3 digits
    short of q, N = abs_prec(q), up to 30 beyond it.  A short u sets the
    precision of the values, min(N, rel_prec(u) + v(q)) - v(u), and at
    v(u) > 0 the pieces u^m w_m run out of digits before u^-m w_m do."""
    field = POINT_FIELDS[name]
    rng = stream(31, "series-point", name)
    qs = [(sq, sq + rng.randint(6, 18)) for sq in range(1, 6)]
    qs.append((rng.randint(1, 5), rng.randint(100, 160)))
    for sq, N in qs:
        q = random_unit(rng, field, N - sq) * PadicElement.uniformizer(field, N, sq)
        for extra in (-(-N // 2), 3, 0, -5, -30):
            prec = N - extra
            us = [random_unit(rng, field, prec) * PadicElement.uniformizer(field, prec, su)
                  for su in range(sq)]
            for c in (1, -1, 2, 3):
                k = rng.randint(1, max(1, N // 3))
                us.append(random_unit(rng, field, prec) * PadicElement.uniformizer(field, prec, k) + c)
            for u in us:
                yield q, u


class TestSeriesPointDifferential:
    """tate_series_point agrees with the sums of separately reduced
    coefficients (tests/oracles.py), and tate_xy_with_derivative with the
    same sums on the dual seed u + eps, in the shift, coefficients and
    precision of X, Y and X', or raises the same error."""

    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_matches_coefficient_form(self, name):
        curves = {}
        for i, (q, u) in enumerate(point_cases(name)):
            curve = curves.setdefault(q, curve_coefficients(q))
            slack = (0, 3, 10)[i % 3]
            for point, oracle in ((tate_series_point, series_point_stepwise),
                                  (tate_xy_with_derivative, xy_with_derivative_stepwise)):
                got = outcome(lambda: point(curve, u, slack))
                want = outcome(lambda: oracle(curve, u, slack))
                assert got == want, (q, u, slack)


class TestDoubledPrecision:
    """Every digit of X, Y and X' that tate_xy_with_derivative claims at
    precision N is the digit at 2N: q and u are drawn at 2N, u at 2(N + k)
    for u known k digits beyond q, each with random digits throughout
    (prng.random_unit), and truncated to N and N + k, over the
    four field kinds of tests/strategies.py, two of them Q_p, whose theta
    chains run on ints, and two extensions, whose chains run on vectors.  u is
    drawn at v(u) > 0, at v(u) = 0 with u = -1 mod pi, where u^2 = 1 mod pi
    and digits of X' cancel, as any unit, and as u = 1 + pi^j v near the
    kernel, 3j <= N - slack, known k <= 3j digits beyond q, where the
    principal parts, known to N + k - 3j and N + k - 4j, set the precision.
    "u short" draws u known to k < N - v(q) digits, and to 2k for the
    reference, at v(u) >= v(q)/2, so that u sets the pass's precision
    P = k + v(q) - v(u) and X and Y are known to it, ahead of the principal
    parts, known to k + v(u) and k + 2 v(u), and X' to P - v(u).  The
    curve's a4 and a6 and s_k are checked the same way over every field of
    POINT_FIELDS, q drawn with random digits at 2N and truncated to N, and
    so is P + P, from curve_add's doubling branch, at a point phi(u)."""

    @given(data=st.data(), name=st.sampled_from(sorted(FIELDS)),
           kind=st.sampled_from(["v(u) > 0", "u = -1 mod pi", "unit", "u = 1 mod pi",
                                 "u short"]),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_claimed_digits_survive_doubling(self, data, name, kind, seed):
        field = FIELDS[name]
        N = data.draw(st.integers(12, 40))
        sq = data.draw(st.integers(1 if kind in ("u = -1 mod pi", "unit", "u = 1 mod pi") else 2, 4))
        slack = data.draw(st.sampled_from([0, 3, 10]))
        su = 0
        if kind in ("v(u) > 0", "u short"):
            su = data.draw(st.integers(-(-sq // 2) if kind == "u short" else 1, sq - 1))
        if kind == "u = 1 mod pi":
            j = data.draw(st.integers(1, max(1, (N - slack) // 3)))
            k = data.draw(st.integers(0, 3 * j))
        elif kind == "u short":
            k = data.draw(st.integers(1, N - sq - 1))
        else:
            k = data.draw(st.integers(0, N))
        # u's absolute precision: k digits past q's, or k past its own shift
        uprec = su + k if kind == "u short" else N + k
        top, rng = 2 * (N + k), stream(seed, "point doubling")
        q = random_unit(rng, field, top) * PadicElement.uniformizer(field, top + sq, sq)
        u = random_unit(rng, field, top)
        if su:
            u = u * PadicElement.uniformizer(field, top + sq, su)
        elif kind == "u = -1 mod pi":
            u = u * PadicElement.uniformizer(field, top + 1, data.draw(st.integers(1, N))) - 1
        elif kind == "u = 1 mod pi":
            u = u * PadicElement.uniformizer(field, top + 1, j) + 1
        try:
            got = tate_xy_with_derivative(curve_coefficients(q.truncate(N)), u.truncate(uprec),
                                          slack)
        except PadicError:
            assume(False)
        if kind == "u short":
            P = k + sq - su
            assert [c.abs_prec for c in got] == [P, P, P - su]
        ref = tate_xy_with_derivative(curve_coefficients(q.truncate(2 * N)),
                                      u.truncate(2 * uprec), slack)
        for a, b in zip(got, ref):
            assert b.abs_prec >= a.abs_prec
            assert key(a) == key(b.truncate(a.abs_prec))

    @given(data=st.data(), name=st.sampled_from(sorted(POINT_FIELDS)),
           sq=st.integers(1, 5), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_coefficients_survive_doubling(self, data, name, sq, seed):
        # every digit of a4, a6 and s_k claimed at N is the digit at 2N: q is
        # drawn at 2N, with random digits throughout, and truncated to N
        field = POINT_FIELDS[name]
        N = data.draw(st.integers(sq + 1, 160))
        q = random_unit(stream(seed, "doubling"), field, 2 * N - sq) * \
            PadicElement.uniformizer(field, 2 * N, sq)

        def values(x):
            curve = curve_coefficients(x)
            return [curve.a4, curve.a6] + [s_k(x, k) for k in (1, 3, 11)]
        for a, b in zip(values(q.truncate(N)), values(q)):
            assert a.abs_prec == N and b.abs_prec == 2 * N
            assert key(a) == key(b.truncate(N))

    @given(data=st.data(), name=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_point_doubling_survives_doubling(self, data, name, seed):
        field = FIELDS[name]
        N = data.draw(st.integers(12, 40))
        sq = data.draw(st.integers(1, 4))
        su = data.draw(st.integers(0, sq - 1))
        rng = stream(seed, "add doubling")
        q = random_unit(rng, field, 2 * N) * PadicElement.uniformizer(field, 2 * N + sq, sq)
        u = random_unit(rng, field, 2 * N) * PadicElement.uniformizer(field, 2 * N + su, su)

        def doubled(prec):
            curve = curve_coefficients(q.truncate(prec))
            point = phi(curve, u.truncate(prec))
            return curve_add(curve, point, point)
        try:
            got = doubled(N)
        except PadicError:
            assume(False)
        assume(not got.is_identity)
        ref = doubled(2 * N)
        for a, b in ((got.x, ref.x), (got.y, ref.y)):
            assert b.abs_prec >= a.abs_prec
            assert key(a) == key(b.truncate(a.abs_prec))


class TestWeightsDifferential:
    """s_1(q), which each curve keeps where its Lambert weights were, agrees
    with the sum of m q^m / (1 - q^m) over those weights, each by one
    inversion (tests/oracles.py), in shift, coefficients and precision, at
    v(q) = 1..7 and precision up to 400."""

    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_matches_inversion(self, name):
        field = POINT_FIELDS[name]
        rng = stream(37, "weights", name)
        for sq in range(1, 8):
            for prec in (rng.randint(sq + 1, 40), rng.randint(41, 160), rng.randint(161, 400)):
                q = random_unit(rng, field, prec - sq) * PadicElement.uniformizer(field, prec, sq)
                want = lambert_stepwise(q, [], lambda m: m, -(-prec // sq), prec).truncate(prec)
                assert key(curve_coefficients(q).s1) == key(want), q


class TestCoefficientsDifferential:
    """a4, a6 and s_k for k = 1, 3 and 11, each one rectangular sum of a
    power series in q, agree with their Lambert sums term by term
    (tests/oracles.py) in shift, coefficients and precision, at v(q) = 1..5
    and N = abs_prec(q) up to 160, with q drawn past N and truncated to it.
    N = v(q) + 1 and N = 2 v(q) sum the T = (N - 1) // v(q) = 1 term below
    pi^N, against ceil(N / v(q)) = 2 Lambert terms, the second zero at pi^N."""

    @pytest.mark.parametrize("name", sorted(POINT_FIELDS))
    def test_matches_lambert_sums(self, name):
        field = POINT_FIELDS[name]
        rng = stream(41, "coefficients", name)
        for sq in range(1, 6):
            for N in (sq + 1, 2 * sq, rng.randint(2 * sq + 1, 40), rng.randint(41, 160)):
                q = random_unit(rng, field, N + 20) * PadicElement.uniformizer(field, N + 20, sq)
                q = q.truncate(N)
                weights, terms = [], -(-N // sq)

                def stepwise(coeff):
                    return key(lambert_stepwise(q, weights, coeff, terms, N).truncate(N))
                curve = curve_coefficients(q)
                got = [key(curve.a4), key(curve.a6)] + [key(s_k(q, k)) for k in (1, 3, 11)]
                want = [stepwise(lambda m: -5 * m ** 3), stepwise(lambda m: -a6_coefficient(m))]
                want += [stepwise(lambda m, k=k: m ** k) for k in (1, 3, 11)]
                assert got == want, (q, N)


class TestPentagonalDiscriminant:
    """a4 and a6 together, through curve_discriminant, agree with
    Delta = q prod_{n>=1} (1 - q^n)^24, its product summed by Euler's
    pentagonal series (tests/oracles.py), which no divisor sum enters, in
    shift, coefficients and the precision N = abs_prec(q) that both are
    known to, over Q_2..Q_11 at v(q) = 1..4 and N = 10..300."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_matches_curve_discriminant(self, p):
        field = make_field(p)
        rng = stream(47, "pentagonal", p)
        for sq in range(1, 5):
            for _ in range(8):
                N = rng.randint(10, 300)
                q = random_unit(rng, field, N - sq) * PadicElement.uniformizer(field, N, sq)
                delta, want = curve_discriminant(curve_coefficients(q)), discriminant_pentagonal(q)
                assert delta.abs_prec == want.abs_prec == N
                assert key(delta) == key(want), q


class TestCoefficientMakes:
    """Every _make call of a series point, of phi and of a dual product:
    each coordinate and the derivative of a dual product are reduced once."""

    def test_series_point(self, makes, curve25, Q5):
        # a plain point makes one _make for each of X and Y, each the sum of
        # its theta term and its multiple of s_1, on a fresh curve as on a
        # warm one; (X, Y, X') makes one more for X'.  v(1 - u) and
        # v(1 + u), which set the precisions, are read from u's vector, with
        # no element
        curve = curve_coefficients(curve25.q)
        counts = []
        for n in (7, 35):
            u = PadicElement.from_int(Q5, n, 40)
            counts += [makes(lambda: tate_series_point(curve, u))[0].total(),
                       makes(lambda: tate_xy_with_derivative(curve, u))[0].total()]
        assert counts == [2, 3, 2, 3]

    @pytest.mark.parametrize("n", [7, 35, 6], ids=["v0", "v1", "near-kernel"])
    def test_phi(self, makes, curve25, Q5, n):
        # u in the fundamental domain, off the kernel: phi tests the kernel
        # once, inside the point, so it makes X and Y and nothing else
        u = PadicElement.from_int(Q5, n, 40)
        assert makes(lambda: phi(curve25, u))[0].total() == 2

    def test_curve_coefficients(self, count_calls, Q5):
        # a4, a6, s_1 and s_k are one rectangular sum each, scaled by q's
        # unit and A_1: one _make apiece and no element product; a chain of
        # the powers q, ..., q^20 made 19 products per sum, each reduced by
        # a _make of its own (40 _make and 38 __mul__ for a4 and a6)
        q = random_unit(stream(43, "makes"), Q5, 38) * PadicElement.uniformizer(Q5, 40, 2)
        counted = count_calls((field_mod, "_make"), (PadicElement, "__mul__"),
                              (tate_mod, "_hypergeometric"))
        assert counted(lambda: curve_coefficients(q))[0] == {"_make": 3, "_hypergeometric": 3}
        assert counted(lambda: s_k(q, 3))[0] == {"_make": 1, "_hypergeometric": 1}

    def test_dual_product(self, makes, Q5):
        a = DualElement(PadicElement.from_int(Q5, 7, 40), PadicElement.from_int(Q5, 3, 40))
        b = DualElement.seed(PadicElement.from_int(Q5, 11, 40))
        # the value's product, the derivative's two products and their sum
        # (2 while the derivative was one fused sum of the raw products)
        assert makes(lambda: a * b)[0].total() == 4


class TestDualMemo:
    """verify_ode and relation_residual at one (u, slack) share one
    evaluation of (X, Y, X'); any other u, precision, slack or curve
    recomputes.  An evaluation is one call of the guards and theta sums."""

    @pytest.fixture
    def series_calls(self, count_calls):
        return count_calls((tate_mod, "_series_point"))

    @pytest.fixture
    def curve(self, Q5):
        return curve_coefficients(PadicElement.from_int(Q5, 25, 40))

    @pytest.mark.parametrize("n", [7, 35], ids=["v0", "v1"])
    def test_ode_then_relation_evaluates_once(self, series_calls, curve, Q5, n):
        u = PadicElement.from_int(Q5, n, 40)
        calls, (ode, rel) = series_calls(
            lambda: (verify_ode(curve, u), relation_residual(curve, u)))
        assert calls.total() == 1
        assert series_calls(lambda: tate_xy_with_derivative(curve, u))[0].total() == 0
        fresh = curve_coefficients(curve.q)
        assert ode == verify_ode(fresh, u) and rel == relation_residual(fresh, u)
        assert tate_xy_with_derivative(curve, u) == tate_xy_with_derivative(fresh, u)

    @pytest.mark.parametrize("other", ["u", "abs_prec", "slack", "curve"])
    def test_other_key_recomputes(self, series_calls, curve, Q5, other):
        u = PadicElement.from_int(Q5, 7, 40)
        verify_ode(curve, u)
        c2, u2, slack2 = curve, u, 10
        if other == "u":
            u2 = PadicElement.from_int(Q5, 8, 40)
        elif other == "abs_prec":
            u2 = PadicElement.from_int(Q5, 7, 39)
        elif other == "slack":
            slack2 = 9
        else:
            c2 = curve_coefficients(curve.q)
        calls, got = series_calls(lambda: tate_xy_with_derivative(c2, u2, slack=slack2))
        assert calls.total() == 1
        assert got == tate_xy_with_derivative(curve_coefficients(curve.q), u2, slack=slack2)
        # one entry per curve: on the same curve the second key replaced the first
        back = series_calls(lambda: tate_xy_with_derivative(curve, u))[0].total()
        assert back == (0 if other == "curve" else 1)

    def test_other_field_raises_and_is_not_memoised(self, series_calls, curve, Q5):
        u = PadicElement.from_int(Q5, 3, 40)
        want = tate_xy_with_derivative(curve, u)
        alien = PadicElement(make_field(7), u.shift, u.coeffs, u.abs_prec)
        for _ in range(2):
            with pytest.raises(FieldMismatch):
                verify_ode(curve, alien)
        near_one = PadicElement.from_int(Q5, 1 + 5 ** 12, 40)
        calls, _ = series_calls(lambda: pytest.raises(
            InsufficientPrecision, tate_xy_with_derivative, curve, near_one))
        assert calls.total() == 1
        assert series_calls(lambda: tate_xy_with_derivative(curve, u)) == ({}, want)

    def test_shared_curve_across_threads(self, Q5):
        # more threads than cores and a short switch interval, so that memo
        # reads and writes on one curve interleave
        q = PadicElement.from_int(Q5, 125, 40)
        us = [PadicElement.from_int(Q5, n, 40) for n in (7, 35, 50, 8)]
        want = {n: tate_xy_with_derivative(curve_coefficients(q), u)
                for n, u in enumerate(us)}
        shared = curve_coefficients(q)
        errors = []

        def work(k):
            try:
                for i in range(8):
                    n = (i + k) % len(us)
                    if tate_xy_with_derivative(shared, us[n]) != want[n]:
                        errors.append((k, i))
            except Exception as exc:        # reported through errors below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert shared.memo[0][1] in want.values()

    def test_eq_hash_repr_unchanged(self, curve, Q5):
        fresh = curve_coefficients(curve.q)
        before = (hash(curve), repr(curve))
        relation_residual(curve, PadicElement.from_int(Q5, 7, 40))
        assert curve.memo[0] is not None and fresh.memo[0] is None
        assert curve == fresh and (hash(curve), repr(curve)) == before
        assert hash(fresh) == before[0] and repr(fresh) == before[1]
        assert "memo" not in repr(curve)


class TestPhi:
    def test_kernel(self, curve25):
        for n in range(-2, 3):
            assert phi(curve25, curve25.q ** n).is_identity

    def test_homomorphism(self, curve25, Q5):
        for i in range(8):
            rng = stream(13, "tate-hom", i)
            u1 = random_unit(rng, Q5, 40)
            u2 = random_unit(rng, Q5, 40) * PadicElement.from_int(Q5, 5, 41)
            P12 = phi(curve25, u1 * u2)
            S = curve_add(curve25, phi(curve25, u1), phi(curve25, u2))
            assert point_difference_valuation(P12, S).at_least(Fraction(30))

    def test_precision_audit_vs_double(self, Q5):
        q40 = PadicElement.from_int(Q5, 25, 40)
        q80 = PadicElement.from_int(Q5, 25, 80)
        u40 = PadicElement.from_int(Q5, 7, 40)
        u80 = PadicElement.from_int(Q5, 7, 80)
        p40 = phi(curve_coefficients(q40), u40)
        p80 = phi(curve_coefficients(q80), u80)
        assert p40.x.is_indistinguishable(p80.x.truncate(p40.x.abs_prec))
        assert p40.y.is_indistinguishable(p80.y.truncate(p40.y.abs_prec))
        assert p40.prec >= 40 - 10


class TestGuards:
    """Display, imprecise-zero guards and identity shortcuts."""

    def test_point_str_and_prec(self, curve25, Q5):
        P = phi(curve25, PadicElement.from_int(Q5, 7, 40))
        assert str(P) == f"({P.x}, {P.y})"
        assert str(TatePoint.identity()) == "identity"
        assert TatePoint.identity().prec is None

    def test_imprecise_zero_u(self, curve25, Q5):
        zero = PadicElement.zero(Q5, 40)
        with pytest.raises(ZeroElement):
            phi(curve25, zero)
        with pytest.raises(ImpreciseValuation):
            tate_series_point(curve25, zero)
        with pytest.raises(ImpreciseValuation):
            reduce_to_fundamental(curve25.q, zero)

    def test_imprecise_zero_q_and_k_zero(self, curve25, Q5):
        with pytest.raises(NonpositiveValuation, match="q is an imprecise zero"):
            curve_coefficients(PadicElement.zero(Q5, 40))
        with pytest.raises(ValueError):
            s_k(curve25.q, 0)

    def test_identity_skips_on_curve_check(self, monkeypatch, curve25, Q5):
        with pytest.raises(ValueError):
            curve_equation_residual(curve25, TatePoint.identity())

        def no_residual(*args):
            raise AssertionError("on-curve check ran")
        monkeypatch.setattr(tate_mod, "_equation_residual", no_residual)
        O = TatePoint.identity()
        off = TatePoint.affine(PadicElement.one(Q5, 40), PadicElement.one(Q5, 40))
        assert curve_neg(curve25, O) == O and curve_add(curve25, O, O) == O
        assert curve_add(curve25, O, off) == off and curve_add(curve25, off, O) == off


class TestGroupLaw:
    def test_identity_laws(self, curve25, Q5):
        P = phi(curve25, PadicElement.from_int(Q5, 7, 40))
        assert curve_add(curve25, P, TatePoint.identity()) == P
        assert curve_add(curve25, TatePoint.identity(), P) == P

    def test_checked_add_builds_no_fraction(self, curve25, Q5, fractions_built):
        # the on-curve check compares residual shifts as integers
        P, Q = (phi(curve25, PadicElement.from_int(Q5, u, 40)) for u in (7, 11))
        built, S = fractions_built(lambda: curve_add(curve25, P, Q))
        assert built.total() == 0 and not S.is_identity

    def test_inverse_law(self, curve25, Q5):
        P = phi(curve25, PadicElement.from_int(Q5, 7, 40))
        assert curve_add(curve25, P, curve_neg(curve25, P)).is_identity

    def test_neg_matches_u_inverse(self, curve25, Q5):
        u = PadicElement.from_int(Q5, 7, 40)
        lhs = curve_neg(curve25, phi(curve25, u))
        rhs = phi(curve25, u.invert())
        assert point_difference_valuation(lhs, rhs).at_least(Fraction(30))

    def test_associativity(self, curve25, Q5):
        for i in range(6):
            rng = stream(17, "assoc", i)
            pts = [phi(curve25, random_unit(rng, Q5, 40)) for _ in range(3)]
            left = curve_add(curve25, curve_add(curve25, pts[0], pts[1]), pts[2])
            right = curve_add(curve25, pts[0], curve_add(curve25, pts[1], pts[2]))
            assert point_difference_valuation(left, right).at_least(Fraction(28))

    def test_difference_with_the_identity(self, curve25, Q5):
        O = TatePoint.identity()
        agreement = point_difference_valuation(O, O)
        assert agreement.at_least(Fraction(10 ** 9)) and not agreement.is_exact
        P = phi(curve25, PadicElement.from_int(Q5, 7, 40))
        for pair in ((P, O), (O, P)):
            with pytest.raises(ValueError, match="affine point with the identity"):
                point_difference_valuation(*pair)

    def test_doubling_a_two_torsion_point(self, curve25, Q5):
        # phi(-1) has 2y + x zero to precision, and so has y2 + y1 + x1, so
        # doubling it returns the identity before forming the slope
        P = phi(curve25, PadicElement.from_int(Q5, -1, 40))
        assert (P.y + P.y + P.x).is_zero
        assert curve_add(curve25, P, P).is_identity

    def test_doubling_branch(self, curve25, Q5):
        P = phi(curve25, PadicElement.from_int(Q5, 7, 40))
        doubled = curve_add(curve25, P, P)
        via_phi = phi(curve25, PadicElement.from_int(Q5, 49, 40))
        assert point_difference_valuation(doubled, via_phi).at_least(Fraction(28))


class TestJInvariant:
    def test_valuation(self, Q5):
        for qv in (5, 25):
            q = PadicElement.from_int(Q5, qv, 40)
            j = j_invariant(curve_coefficients(q))
            assert j.valuation().is_exact
            assert j.valuation().value == -q.valuation().value

    def test_expansion_tail(self, curve25):
        j = j_invariant(curve25)
        rem = j - curve25.q.invert() - 744
        assert rem.valuation().at_least(curve25.q.valuation().value)

    def test_oracle_q25_frozen(self, curve25, Q5):
        j = j_invariant(curve25)
        frozen = PadicElement(Q5, -2, (4410089857529810090648617976,), 36)
        assert j.is_indistinguishable(frozen)
        want = from_fraction(Q5, j_from_q_expansion(Fraction(25), 24), 34)
        assert j.is_indistinguishable(want)


class TestDifferentialIdentities:
    def test_ode_residual(self, curve25, Q5):
        for i in range(8):
            rng = stream(19, "ode", i)
            u = random_unit(rng, Q5, 40)
            assert verify_ode(curve25, u).at_least(Fraction(30))

    def test_x_prime_relation(self, curve25, Q5):
        for i in range(8):
            rng = stream(19, "rel", i)
            u = random_unit(rng, Q5, 40)
            assert relation_residual(curve25, u).at_least(Fraction(30))

    def test_doubling_consistency(self, curve25, Q5):
        u = PadicElement.from_int(Q5, 3, 40)
        assert verify_ode(curve25, u).at_least(Fraction(30))
        u2, _ = reduce_to_fundamental(curve25.q, u * u)
        assert verify_ode(curve25, u2).at_least(Fraction(30))

    def test_off_curve_rejected(self, curve25, Q5):
        bad = TatePoint.affine(PadicElement.from_int(Q5, 1, 40),
                               PadicElement.from_int(Q5, 1, 40))
        from padic_tate.errors import OffCurveInput
        with pytest.raises(OffCurveInput):
            curve_add(curve25, bad, bad)


class TestNearKernelGuard:
    def test_principal_part_budget_enforced(self, curve25, Q5):
        from padic_tate.errors import InsufficientPrecision
        # u = 1 + 5^11: the Y principal part would sink 33 digits of 40
        u = PadicElement.from_int(Q5, 1 + 5 ** 11, 40)
        with pytest.raises(InsufficientPrecision):
            tate_series_point(curve25, u, slack=10)

    def test_shallow_kernel_proximity_still_works(self, curve25, Q5):
        u = PadicElement.from_int(Q5, 6, 40)       # v(1-u) = 1
        X, Y = tate_series_point(curve25, u)
        assert X.valuation().value == -2
        res = Y * Y + X * Y - X ** 3 - curve25.a4 * X - curve25.a6
        assert res.valuation().at_least(Fraction(27))

    def test_unreduced_argument_rejected(self, curve25, Q5):
        from padic_tate.errors import DomainError
        with pytest.raises(DomainError):
            tate_series_point(curve25, PadicElement.from_int(Q5, 125, 40))

    def test_negative_valuation_reduces(self, curve25, Q5):
        u = PadicElement.from_rational(Q5, Fraction(1, 5 ** 7), 40)
        red, n = reduce_to_fundamental(curve25.q, u)
        assert n == -4 and red.valuation().value == 1
