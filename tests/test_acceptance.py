"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all;
a FAIL also shows up as the test failure itself).  Runtime limits are part of
the criteria and asserted.
"""

import time

from padic_tate.field import PadicElement, make_field
from padic_tate.harness import (
    RunConfig,
    balls_suite,
    exp_suite,
    lattice_suite,
    tate_suite,
    weierstrass_suite,
)
from padic_tate.lattice import relation_false_positive_bound, relation_search
from padic_tate.prng import random_unit, stream
from padic_tate.series import p_exp
from padic_tate.tate import curve_coefficients, j_invariant, phi
from padic_tate.weierstrass import StrictSeries, weierstrass_divide


def _report(cid: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {cid} failed: {detail}"


def _failures(report):
    return [r for r in report.records if not r.ok]


def test_criterion_1_j_invariant_valuation():
    t0 = time.time()
    ok = True
    details = []
    for p, qv in ((2, 4), (3, 9), (5, 5), (5, 25), (7, 7)):
        field = make_field(p)
        q = PadicElement.from_int(field, qv, 40)
        j = j_invariant(curve_coefficients(q))
        v_j = j.valuation()
        exact = v_j.is_exact and v_j.value == -q.valuation().value
        tail = (j - q.invert() - 744).valuation().at_least(q.valuation().value)
        ok &= exact and tail
        details.append(f"({p},{qv}): v_j={v_j}")
    elapsed = time.time() - t0
    ok &= elapsed < 5
    _report("1 j-invariant-valuation", ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_2_uniformization_homomorphism():
    t0 = time.time()
    cfg = RunConfig(p=5, prec=40, seed=0, slack=10)
    report = tate_suite(cfg, q_literal="5^2", trials=20)
    hom = [r for r in report.records if r.name.startswith(("hom/", "kernel/"))]
    assert sum(1 for r in hom if r.name.startswith("hom/")) == 20
    assert sum(1 for r in hom if r.name.startswith("kernel/")) == 5
    bad = [r for r in hom if not r.ok]
    elapsed = time.time() - t0
    _report("2 uniformization-homomorphism", not bad and elapsed < 30,
            f"{len(hom)} checks, worst ok at >= 30; {elapsed:.2f}s")


def test_criterion_3_differential_identities():
    t0 = time.time()
    bad = []
    for p, q_lit in ((5, "5^2"), (3, "3^2")):
        cfg = RunConfig(p=p, prec=40, seed=0, slack=10)
        report = tate_suite(cfg, q_literal=q_lit, trials=20)
        diff = [r for r in report.records
                if r.name.startswith(("ode/", "xprime/", "ode_doubled/"))]
        assert sum(1 for r in diff if r.name.startswith("ode/")) == 20
        bad += [r for r in diff if not r.ok]
    elapsed = time.time() - t0
    _report("3 differential-identities", not bad and elapsed < 30,
            f"residuals >= 30 at 2x20 seeded u; {elapsed:.2f}s")


def test_criterion_4_exponential_laws():
    t0 = time.time()
    bad = []
    for p, ext in ((2, "eisenstein:e=2,c=-1"), (3, "eisenstein:e=2,c=-1"),
                   (5, "eisenstein:e=4,c=-1")):
        cfg = RunConfig(p=p, prec=40, ext=ext, seed=0, slack=10)
        report = exp_suite(cfg, trials=100)
        assert len(report.records) == 400
        bad += _failures(report)
    elapsed = time.time() - t0
    _report("4 exponential-laws", not bad and elapsed < 20,
            f"3 primes x 100 pairs; {elapsed:.2f}s")


def test_criterion_5_weierstrass_division():
    t0 = time.time()
    cfg = RunConfig(p=5, prec=40, seed=0, slack=10)
    report = weierstrass_suite(cfg)
    bad = _failures(report)
    n_oracle = sum(1 for r in report.records if r.name.startswith("oracle/"))
    elapsed = time.time() - t0
    _report("5 weierstrass-division", not bad and n_oracle == 5 and elapsed < 30,
            f"50 instances, {n_oracle} rational-solve cross-checks; {elapsed:.2f}s")


def test_criterion_6_ball_calculus():
    t0 = time.time()
    cfg = RunConfig(p=5, prec=40, seed=0, slack=10)
    report = balls_suite(cfg)
    bad = _failures(report)
    grid_records = [r for r in report.records if r.name.startswith("grid/")]
    elapsed = time.time() - t0
    _report("6 ball-calculus", not bad and len(grid_records) == 2 and elapsed < 10,
            f"500 seeded + exhaustive 5^6 grid; {elapsed:.2f}s")


def test_criterion_7_lattice_calculus():
    t0 = time.time()
    cfg = RunConfig(p=5, prec=40, seed=0, slack=10)
    report = lattice_suite(cfg)
    bad = _failures(report)
    elapsed = time.time() - t0
    _report("7 lattice-calculus", not bad and elapsed < 10,
            f"{len(report.records)} checks incl. 200-matrix oracle; {elapsed:.2f}s")


def test_criterion_8_relation_prober():
    t0 = time.time()
    field = make_field(5)
    ok = True
    # planted relations at height <= 10 recovered exactly
    x = random_unit(stream(0, "acc8"), field, 60)
    found = relation_search([x, x * 2], 10)
    ok &= found == [(2, -1)]
    z1 = PadicElement.from_int(field, 5, 60)
    z3 = z1 * z1 * 2 - z1 * 3
    found = relation_search([z1, z1 * z1, z3], 10)
    ok &= (3, -2, 1) in found
    ok &= all(m[0] * 5 + m[1] * 25 + m[2] * 35 == 0 for m in found)
    # seeded random inputs at prec 60: empty, with a documented bound
    zs = [random_unit(stream(0, "acc8r", i), field, 60) for i in range(3)]
    found = relation_search(zs, 10)
    bound = relation_false_positive_bound(3, 10, 5, 1, 60 - 10)
    ok &= found == [] and bound < 1e-20
    elapsed = time.time() - t0
    ok &= elapsed < 20
    _report("8 relation-prober", ok,
            f"planted recovered, empty with fp bound {bound:.2e}; {elapsed:.2f}s")


def test_criterion_9_precision_soundness_and_determinism():
    t0 = time.time()
    field = make_field(5)
    ok = True

    # doubled-precision agreement, representative operation per module
    q40 = PadicElement.from_int(field, 25, 40)
    q80 = PadicElement.from_int(field, 25, 80)
    c40, c80 = curve_coefficients(q40), curve_coefficients(q80)
    j40, j80 = j_invariant(c40), j_invariant(c80)
    ok &= j40.is_indistinguishable(j80.truncate(j40.abs_prec))
    u40 = PadicElement.from_int(field, 7, 40)
    u80 = PadicElement.from_int(field, 7, 80)
    p40, p80 = phi(c40, u40), phi(c80, u80)
    ok &= p40.x.is_indistinguishable(p80.x.truncate(p40.x.abs_prec))
    ok &= p40.y.is_indistinguishable(p80.y.truncate(p40.y.abs_prec))
    e40 = p_exp(PadicElement.from_int(field, 5, 40))
    e80 = p_exp(PadicElement.from_int(field, 5, 80))
    ok &= e40.is_indistinguishable(e80.truncate(40))

    def division(prec):
        f = StrictSeries.build(2, field, {
            (0, 2): PadicElement.one(field, prec),
            (1, 0): PadicElement.from_int(field, 5, prec)}, 8, prec)
        g = StrictSeries.build(2, field, {
            (0, 4): PadicElement.one(field, prec)}, 8, prec)
        return weierstrass_divide(g, f, 1)

    (qa, ra), (qb, rb) = division(20), division(40)
    for low, high in ((qa, qb), (ra, rb)):
        for expo, coeff in low.coeffs.items():
            ok &= coeff.is_indistinguishable(
                high.coeffs.get(expo, PadicElement.zero(field, high.coeff_prec)).truncate(20))

    # determinism: identical seeds give identical reports across two runs
    cfg = RunConfig(p=5, prec=40, seed=0, slack=10)
    runs = []
    for _ in range(2):
        snapshot = []
        for name, rep in (("tate", tate_suite(cfg, q_literal="5^2", trials=5)),
                          ("balls", balls_suite(cfg)),
                          ("lattice", lattice_suite(cfg))):
            snapshot += [(name, r.name, r.ok, r.measured) for r in rep.records]
        runs.append(snapshot)
    ok &= runs[0] == runs[1]

    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report("9 precision-soundness", ok,
            f"doubled-precision agreement + deterministic reports; {elapsed:.2f}s")
