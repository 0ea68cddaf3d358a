from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_tate.harness import (
    RunConfig,
    _row_reduce,
    balls_suite,
    exp_suite,
    lattice_suite,
    parse_extension,
    run_suite,
    tate_suite,
    weierstrass_suite,
)

from oracles import row_reduce_dense


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

    def test_weierstrass(self):
        cfg = RunConfig(p=5, prec=40, seed=2)
        rep = weierstrass_suite(cfg, instances=10, oracle_instances=2)
        assert rep.ok

    def test_balls(self):
        cfg = RunConfig(p=5, prec=40, seed=2)
        rep = balls_suite(cfg, instances=50, grid=False)
        assert rep.ok

    def test_lattice(self):
        cfg = RunConfig(p=5, prec=40, seed=2)
        rep = lattice_suite(cfg, matrices=30)
        assert rep.ok

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope", RunConfig())


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

    def test_weierstrass_p2(self):
        cfg = RunConfig(p=2, prec=40, seed=0)
        rep = weierstrass_suite(cfg, instances=6, oracle_instances=1)
        assert rep.ok


# sparse integer matrices with an augmented column, as the Weierstrass
# oracle's systems are; mostly zeros, with repeated and dependent rows
_SPARSE_ROWS = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.just(0), st.integers(-6, 6)),
             min_size=n, max_size=n), min_size=1, max_size=12))


@given(rows=_SPARSE_ROWS, augmented=st.booleans())
@settings(max_examples=100, deadline=None)
def test_sparse_row_reduce_matches_dense(rows, augmented):
    ncols = len(rows[0]) - augmented
    got = [[Fraction(x) for x in row] for row in rows]
    pivots = _row_reduce(got, ncols)
    assert (pivots, got) == row_reduce_dense(rows, ncols)
