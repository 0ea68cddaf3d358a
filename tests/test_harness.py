from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_tate import harness, lattice
from padic_tate.field import PadicElement
from padic_tate.harness import (
    RunConfig,
    _planted_division,
    balls_suite,
    exp_suite,
    lattice_suite,
    parse_extension,
    run_suite,
    tate_suite,
    weierstrass_suite,
)
from padic_tate.prng import stream
from padic_tate.weierstrass import StrictSeries

from oracles import row_reduce_dense, row_reduce_sparse, solve_division


class TestConfig:
    def test_prec_must_exceed_slack(self):
        with pytest.raises(ValueError):
            RunConfig(prec=10, slack=10)

    def test_extension_strings(self):
        assert parse_extension(5, "base").kind == "base"
        e = parse_extension(5, "eisenstein:e=4,c=-1")
        assert (e.e, e.eis_unit) == (4, -1)
        u = parse_extension(2, "unramified:f=2")
        assert u.f == 2
        u2 = parse_extension(2, "unramified:poly=1,1,1")
        assert u2.residue_poly == (1, 1, 1)
        with pytest.raises(ValueError):
            parse_extension(5, "bogus:stuff")


class TestSuitesSmall:
    def test_exp(self):
        cfg = RunConfig(p=3, prec=30, ext="eisenstein:e=2,c=-1", seed=2, slack=10)
        rep = exp_suite(cfg, trials=10)
        assert rep.ok and len(rep.records) == 40

    def test_tate(self):
        cfg = RunConfig(p=5, prec=40, seed=2)
        rep = tate_suite(cfg, q_literal="5^2", trials=5)
        assert rep.ok

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope", RunConfig())


class TestSuitesFull:
    """The suites with one size, run at it."""

    def test_weierstrass(self):
        cfg = RunConfig(p=5, prec=40, seed=2)
        rep = weierstrass_suite(cfg)
        assert rep.ok

    def test_balls(self):
        cfg = RunConfig(p=5, prec=40, seed=2)
        rep = balls_suite(cfg)
        assert rep.ok

    def test_lattice(self):
        cfg = RunConfig(p=5, prec=40, seed=2)
        rep = lattice_suite(cfg)
        assert rep.ok


class TestDeterminism:
    def test_reports_reproducible(self):
        cfg = RunConfig(p=5, prec=40, seed=9)
        a = tate_suite(cfg, q_literal="5^2", trials=3)
        b = tate_suite(cfg, q_literal="5^2", trials=3)
        assert [(r.name, r.ok, r.measured) for r in a.records] == \
            [(r.name, r.ok, r.measured) for r in b.records]

    def test_seed_changes_samples(self):
        a = tate_suite(RunConfig(p=5, prec=40, seed=1), q_literal="5^2", trials=3)
        b = tate_suite(RunConfig(p=5, prec=40, seed=2), q_literal="5^2", trials=3)
        assert [r.measured for r in a.records] != [r.measured for r in b.records]


class TestDifferentPrimes:
    def test_tate_p3(self):
        cfg = RunConfig(p=3, prec=40, seed=0)
        rep = tate_suite(cfg, q_literal="3^2", trials=4)
        assert rep.ok

    def test_tate_p2(self):
        cfg = RunConfig(p=2, prec=40, seed=0)
        rep = tate_suite(cfg, q_literal="2^2", trials=4)
        assert rep.ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_tate_default_q_is_p_squared(self, p):
        cfg = RunConfig(p=p, prec=40, seed=0)
        rep = run_suite("tate", cfg, trials=2)
        want = tate_suite(cfg, q_literal=f"{p}^2", trials=2)
        assert rep.ok and rep.records == want.records

    def test_weierstrass_p2(self):
        cfg = RunConfig(p=2, prec=40, seed=0)
        rep = weierstrass_suite(cfg)
        assert rep.ok


# sparse integer matrices with an augmented column, as the systems of
# oracles.solve_division are; mostly zeros, with repeated and dependent rows
_SPARSE_ROWS = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.just(0), st.integers(-6, 6)),
             min_size=n, max_size=n), min_size=1, max_size=12))


@given(rows=_SPARSE_ROWS, augmented=st.booleans())
@settings(max_examples=100, deadline=None)
def test_sparse_row_reduce_matches_dense(rows, augmented):
    ncols = len(rows[0]) - augmented
    got = [[Fraction(x) for x in row] for row in rows]
    pivots = row_reduce_sparse(got, ncols)
    assert (pivots, got) == row_reduce_dense(rows, ncols)


class TestWeierstrassOracle:
    """The oracle/* records compare the division with the planted (q, r),
    which is what the exact-rational solve returns."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_planted_pair_is_the_rational_solve(self, p):
        for seed in range(5):
            for i in range(5):
                nvars, active, d, f, g, q, r = _planted_division(
                    stream(seed, "wdiv-oracle", i), p, 20)
                assert solve_division(g, f, nvars, active, d) == (q, r), (seed, i)

    @pytest.mark.parametrize("p, ext", [(5, "base"), (2, "base"),
                                        (5, "eisenstein:e=2,c=1")])
    def test_wrong_quotient_fails_every_record(self, monkeypatch, p, ext):
        cfg = RunConfig(p=p, ext=ext, seed=0)
        divide = harness.weierstrass_divide

        def off_by_one(g, f, active, **kwargs):
            q, r = divide(g, f, active, **kwargs)
            coeffs = dict(q.coeffs)
            # a zero quotient has no term: perturb its constant one
            expo = next(iter(coeffs), (0,) * q.nvars)
            coeffs[expo] = coeffs.get(expo, PadicElement.zero(q.field, q.coeff_prec)) + 1
            return StrictSeries.build(q.nvars, q.field, coeffs, q.degree_cap,
                                      q.coeff_prec), r

        def oracle(records):
            return [r for r in records if r.name.startswith("oracle/")]

        assert weierstrass_suite(cfg).ok
        monkeypatch.setattr(harness, "weierstrass_divide", off_by_one)
        records = oracle(weierstrass_suite(cfg).records)
        assert [r.name for r in records] == [f"oracle/{i}" for i in range(5)]
        assert all(not r.ok and r.measured == "mismatch" for r in records)


class TestSnfOracle:
    """snf/200 compares the rank of D with an elimination that shares no code
    with smith_normal_form, so it is the check that a D which is not
    diagonal must fail."""

    def test_a_swapped_diagonal_fails_snf(self, monkeypatch):
        snf = lattice.smith_normal_form

        def swapped(M):
            U, D, V = snf(M)
            if len(D) <= 2 and len(D[0]) >= 2:
                # U M V = D, the unimodularity and the divisor chain still
                # hold, so only the rank comparison can fail
                D, V = ([(row[1], row[0]) + row[2:] for row in X] for X in (D, V))
            return U, lattice.matrix(D), lattice.matrix(V)

        cfg = RunConfig(p=5, prec=40, seed=0)
        assert lattice_suite(cfg).records[0].ok
        monkeypatch.setattr(lattice, "smith_normal_form", swapped)
        record = lattice_suite(cfg).records[0]
        assert record.name == "snf/200" and not record.ok


class TestWeierstrassUniqueness:
    """unique/{i} divides g + f by f and expects (q + 1, r): a division that
    ignores its dividend fails every one of them."""

    @pytest.mark.parametrize("p, ext", [(5, "base"), (2, "base"),
                                        (3, "unramified:f=2"), (5, "eisenstein:e=2,c=1")])
    def test_a_division_that_ignores_g_fails_every_record(self, monkeypatch, p, ext):
        cfg = RunConfig(p=p, ext=ext, seed=0)
        divide = harness.weierstrass_divide
        first = {}

        def first_answer(g, f, active):
            if id(f) not in first:      # f is kept, so its id is not reused
                first[id(f)] = f, divide(g, f, active)
            return first[id(f)][1]

        def unique(records):
            return [r for r in records if r.name.startswith("unique/")]

        assert all(r.ok for r in unique(weierstrass_suite(cfg).records))
        monkeypatch.setattr(harness, "weierstrass_divide", first_answer)
        records = weierstrass_suite(cfg).records
        assert len(unique(records)) == 50
        assert not any(r.ok for r in unique(records))
        assert all(r.ok for r in records if not r.name.startswith("unique/"))
