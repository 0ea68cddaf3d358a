from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_tate.balls import Ball, ball_next, same_ball
from padic_tate.errors import ImpreciseDistance, MemberOfC
from padic_tate.field import PadicElement, make_field
from padic_tate.prng import random_element, stream


def ints(Q5, *values, prec=12):
    return [PadicElement.from_int(Q5, v, prec) for v in values]


class TestBallNext:
    def test_radius_from_single_center(self, Q5):
        (zero, x) = ints(Q5, 0, 5)
        ball = ball_next([zero], 0, x)
        assert ball.lambda_radius == 1

    def test_lambda_shifts_radius(self, Q5):
        (zero, x) = ints(Q5, 0, 5)
        assert ball_next([zero], 2, x).lambda_radius == 3

    def test_max_over_centers(self, Q5):
        (zero, one, x) = ints(Q5, 0, 1, 5)
        # v(5-0) = 1, v(5-1) = 0: the max wins
        assert ball_next([zero, one], 0, x).lambda_radius == 1

    def test_member_rejected(self, Q5):
        (zero,) = ints(Q5, 0)
        with pytest.raises(MemberOfC):
            ball_next([zero], 0, PadicElement.zero(Q5, 12))

    def test_ball_equality_is_extensional(self, Q5):
        (zero, x, y) = ints(Q5, 0, 5, 30)
        assert ball_next([zero], 0, x) == ball_next([zero], 0, y)
        assert Ball(x, Fraction(1)) != Ball(x, Fraction(2))


class TestSameBall:
    @pytest.mark.parametrize("centers", [[0], [0, 1, 2, 3]], ids=["C1", "C4"])
    def test_fraction_count(self, Q5, fractions_built, centers):
        # valuations are compared as integers in pi-units
        C = ints(Q5, *centers)
        x, y = ints(Q5, 5, 5 + 5 ** 10)
        lam = Fraction(1)
        built, same = fractions_built(lambda: same_ball(C, lam, x, y))
        assert same is True and built.total() <= 1

    def test_worked_true(self, Q5):
        (zero, x, y) = ints(Q5, 0, 5, 30)
        # v(x-y) = 2 > 0 + v(5) = 1
        assert same_ball([zero], 0, x, y) is True

    def test_worked_false(self, Q5):
        (zero, x, y) = ints(Q5, 0, 5, 10)
        assert same_ball([zero], 0, x, y) is False

    def test_reflexive_for_any_admissible(self, Q5):
        (zero, one, x) = ints(Q5, 0, 1, 7)
        assert same_ball([zero, one], 3, x, x) is True

    def test_imprecise_distance_raises(self, Q5):
        (zero,) = ints(Q5, 0, prec=3)
        x = PadicElement.from_int(Q5, 1, 3)
        y = PadicElement.from_int(Q5, 1 + 125, 3)   # equal mod 5^3
        # v(x-y) >= 3 cannot be compared against lambda + v(x-0) = 3
        with pytest.raises(ImpreciseDistance):
            same_ball([zero], 3, x, y)


@pytest.mark.parametrize("call", [lambda x: ball_next([], 0, x),
                                  lambda x: same_ball([], 0, x, x)], ids=["next", "same"])
def test_empty_C_is_refused(Q5, call):
    with pytest.raises(ValueError, match="C must be a non-empty finite set"):
        call(PadicElement.from_int(Q5, 7, 10))


class TestPartitionProperties:
    def test_consistency_seeded(self, Q5):
        # same_ball(x, y) iff the lambda-next balls coincide
        for i in range(300):
            rng = stream(51, "ballprop", i)
            C = []
            while len(C) < rng.randint(1, 4):
                c = random_element(rng, Q5, 16, 0, 3)
                if all(not (c - d).is_zero for d in C):
                    C.append(c)
            lam = Fraction(rng.randint(0, 2))

            def draw():
                while True:
                    z = random_element(rng, Q5, 16, 0, 3)
                    if all(not (z - c).is_zero for c in C):
                        return z

            x = draw()
            y = x + random_element(rng, Q5, 16, rng.randint(1, 5), 7) \
                if rng.random() < 0.5 else draw()
            if any((y - c).is_zero for c in C):
                continue
            assert same_ball(C, lam, x, y) == \
                (ball_next(C, lam, x) == ball_next(C, lam, y))

    def test_equivalence_axioms(self, Q5):
        for i in range(200):
            rng = stream(53, "equiv", i)
            C = [random_element(rng, Q5, 16, 0, 2)]
            lam = Fraction(rng.randint(0, 2))

            def draw():
                while True:
                    z = random_element(rng, Q5, 16, 0, 3)
                    if not (z - C[0]).is_zero:
                        return z

            x = draw()
            y = x + random_element(rng, Q5, 16, rng.randint(1, 6), 8)
            z = x + random_element(rng, Q5, 16, rng.randint(1, 6), 8)
            if any((w - C[0]).is_zero for w in (y, z)):
                continue
            sxy, sxz, syz = (same_ball(C, lam, x, y), same_ball(C, lam, x, z),
                             same_ball(C, lam, y, z))
            assert sxy == same_ball(C, lam, y, x)
            if sxy and sxz:
                assert syz

    def test_monotone_in_lambda(self, Q5):
        for i in range(150):
            rng = stream(57, "mono", i)
            C = [PadicElement.from_int(Q5, 0, 16)]
            x = random_element(rng, Q5, 16, 0, 2)
            y = x + random_element(rng, Q5, 16, rng.randint(1, 6), 8)
            if (y - C[0]).is_zero or (x - C[0]).is_zero:
                continue
            for lam in (2, 1):
                if same_ball(C, lam, x, y):
                    assert same_ball(C, lam - 1, x, y)


@given(xv=st.integers(min_value=1, max_value=5 ** 6 - 1),
       yv=st.integers(min_value=1, max_value=5 ** 6 - 1),
       lam=st.integers(min_value=0, max_value=2))
@settings(max_examples=200, deadline=None)
def test_grid_agreement_hypothesis(xv, yv, lam):
    field = make_field(5)
    zero = PadicElement.from_int(field, 0, 12)
    x = PadicElement.from_int(field, xv, 12)
    y = PadicElement.from_int(field, yv, 12)
    lhs = same_ball([zero], lam, x, y)
    rhs = ball_next([zero], lam, x) == ball_next([zero], lam, y)
    assert lhs == rhs
