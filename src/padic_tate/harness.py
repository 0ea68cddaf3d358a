"""Seeded verification suites behind the CLI and the acceptance tests.

Every suite draws its samples from per-trial hash-derived streams, so
reports are byte-identical for a fixed (seed, parameters) regardless of
execution order, and lists one record per assertion with the measured
residual valuations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import balls as balls_mod
from . import lattice as lat
from .errors import DomainError
from .field import DEFAULT_SLACK, FieldDescriptor, PadicElement, _ceil_div, parse_extension
from .parsing import parse_element
from .prng import random_element, random_unit, stream
from .series import p_exp, p_log
from .tate import (
    curve_add,
    curve_coefficients,
    curve_equation_residual,
    j_invariant,
    phi,
    point_difference_valuation,
    reduce_to_fundamental,
    relation_residual,
    verify_ode,
)
from .weierstrass import StrictSeries, gauss_valuation, regular_degree, weierstrass_divide


@dataclass(frozen=True)
class RunConfig:
    p: int = 5
    prec: int = 40
    ext: str = "base"
    seed: int = 0
    slack: int = DEFAULT_SLACK

    def __post_init__(self):
        if self.prec <= self.slack:
            raise ValueError("prec must exceed slack")

    def field(self) -> FieldDescriptor:
        return parse_extension(self.p, self.ext)


@dataclass(frozen=True)
class AssertionRecord:
    name: str
    ok: bool
    measured: str
    threshold: str


@dataclass
class SuiteReport:
    suite: str
    records: list[AssertionRecord] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def check(self, name: str, ok: bool, measured, threshold) -> None:
        self.records.append(AssertionRecord(name, bool(ok), str(measured), str(threshold)))

    def expect(self, name: str, measured, expected) -> None:
        self.check(name, measured == expected, measured, expected)

    def check_valuation(self, name: str, result, threshold: Fraction) -> None:
        self.check(name, result.at_least(threshold), result, threshold)


# ---------------------------------------------------------------------------
# exponential suite
# ---------------------------------------------------------------------------

def _domain_shift_range(field: FieldDescriptor) -> tuple[int, int]:
    """Uniformizer shifts strictly inside the convergence ball."""
    lo = field.e // (field.p - 1) + 1
    return lo, lo + 2


def exp_suite(config: RunConfig, trials: int = 100) -> SuiteReport:
    field = config.field()
    report = SuiteReport("exp")
    prec, slack, e = config.prec, config.slack, field.e
    threshold = Fraction(prec - slack, e)
    lo, hi = _domain_shift_range(field)
    for i in range(trials):
        rng = stream(config.seed, "exp", i)
        x = random_element(rng, field, prec, lo, hi)
        y = random_element(rng, field, prec, lo, hi)
        exp_x = p_exp(x)
        hom = p_exp(x + y) - exp_x * p_exp(y)
        report.check_valuation(f"hom/{i}", hom.valuation(), threshold)
        back = p_log(exp_x) - x
        report.check_valuation(f"log_exp/{i}", back.valuation(), threshold)
        target = PadicElement.one(field, prec) + y
        forth = p_exp(p_log(target)) - target
        report.check_valuation(f"exp_log/{i}", forth.valuation(), threshold)
        image = (exp_x - 1).valuation()
        report.check(f"image/{i}",
                     image.is_exact and image.value == x.valuation().value,
                     image, x.valuation())
    return report


# ---------------------------------------------------------------------------
# Tate suite
# ---------------------------------------------------------------------------

def _off_kernel(u: PadicElement) -> bool:
    """True when u stays at least one digit off the kernel: u - 1 has a
    known nonzero digit at pi^0 or pi^1."""
    gap = u - 1
    return not gap.is_zero and gap.shift <= 1


def _kernel_distance_ok(q: PadicElement, u: PadicElement) -> bool:
    """True when the reduction of u stays at least one digit off the kernel."""
    return _off_kernel(reduce_to_fundamental(q, u)[0])


def _sample_fundamental(rng, field: FieldDescriptor, prec: int, sq: int) -> PadicElement:
    """Unit-digit sample in the fundamental domain, kept one digit away from
    the kernel so the principal parts stay inside the slack budget."""
    while True:
        u = random_element(rng, field, prec, 0, sq - 1)
        if _off_kernel(u):
            return u


def _sample_pair(rng, field: FieldDescriptor, prec: int, q: PadicElement):
    """Pair for the homomorphism check.  Both the product and the ratio must
    also stay a digit off the kernel: either degeneracy collapses the
    comparison precision of both sides below any slack budget."""
    while True:
        u1 = _sample_fundamental(rng, field, prec, q.shift)
        u2 = _sample_fundamental(rng, field, prec, q.shift)
        if _kernel_distance_ok(q, u1 * u2) and _kernel_distance_ok(q, u1 * u2.invert()):
            return u1, u2


def tate_suite(config: RunConfig, q_literal: str | None = None, trials: int = 20) -> SuiteReport:
    """The Tate curve checks at q = q_literal, by default p^2."""
    field = config.field()
    report = SuiteReport("tate")
    prec, slack, e = config.prec, config.slack, field.e
    threshold = Fraction(prec - slack, e)
    q = parse_element(q_literal or f"{config.p}^2", field, prec)
    curve = curve_coefficients(q)
    if field.p ** field.f == 2 and q.shift == 1:
        # every sample is 1 + pi * unit, and so every product of two is 1 mod pi^2
        raise DomainError(f"--q of valuation {q.valuation()} over a residue field of 2 elements "
                          "leaves no pair of samples off the kernel; take a larger valuation")

    for n in range(-2, 3):
        pt = phi(curve, q ** n)
        report.expect(f"kernel/q^{n}", pt.kind, "identity")

    jv = j_invariant(curve)
    report.check("j/valuation", jv.valuation().is_exact
                 and jv.valuation().value == -q.valuation().value,
                 jv.valuation(), -q.valuation().value)
    j_tail = (jv - q.invert() - 744).valuation()
    report.check_valuation("j/expansion", j_tail, q.valuation().value)

    for i in range(trials):
        rng = stream(config.seed, "tate", i)
        u1, u2 = _sample_pair(rng, field, prec, q)
        P1, P2 = phi(curve, u1), phi(curve, u2)
        P12 = phi(curve, u1 * u2)
        if P12.is_identity or P1.is_identity or P2.is_identity:
            report.check(f"hom/{i}", False, "kernel sample", "affine points")
            continue
        total = curve_add(curve, P1, P2, slack=slack)
        agreement = point_difference_valuation(P12, total)
        report.check_valuation(f"hom/{i}", agreement, threshold)
        report.check_valuation(f"curve/{i}", curve_equation_residual(curve, P1), threshold)
        report.check_valuation(f"ode/{i}", verify_ode(curve, u1, slack=slack), threshold)
        report.check_valuation(f"xprime/{i}", relation_residual(curve, u1, slack=slack),
                               threshold)
        u_sq, _ = reduce_to_fundamental(q, u1 * u1)
        if _off_kernel(u_sq):
            report.check_valuation(f"ode_doubled/{i}", verify_ode(curve, u_sq, slack=slack),
                                   threshold)
    return report


# ---------------------------------------------------------------------------
# Weierstrass division suite
# ---------------------------------------------------------------------------

def _random_series_instance(rng, field: FieldDescriptor, nvars: int, prec: int,
                            cap: int):
    """(f, g, d) with f regular of degree d <= 3 in the last variable and the
    division of g well-posed inside the degree cap."""
    active = nvars - 1
    d = rng.randint(1, 3)
    p = field.p

    def expo(active_deg, others_budget):
        out = [0] * nvars
        out[active] = active_deg
        for _ in range(others_budget):
            out[rng.randrange(nvars)] += 1 if nvars > 1 else 0
        return tuple(min(x, cap) for x in out)

    def add(terms, key, coeff):
        if not coeff.is_zero:
            terms[key] = terms[key] + coeff if key in terms else coeff

    top = tuple(d if i == active else 0 for i in range(nvars))
    f_terms = {top: PadicElement.one(field, prec)}
    for j in range(d):
        if rng.random() < 0.7:
            add(f_terms, tuple(j if i == active else 0 for i in range(nvars)),
                PadicElement.from_int(field, rng.randint(0, p ** 3), prec))
    # perturbation of high valuation: gamma >= ceil(prec/3) keeps the
    # contraction within three passes and the degrees inside the cap
    gamma = _ceil_div(prec, 3) + rng.randint(0, 2)
    eps_deg = rng.randint(0, 1) if nvars > 1 else 0
    for _ in range(rng.randint(1, 2)):
        key = expo(rng.randint(0, min(2, d)), eps_deg)
        unit = rng.randint(1, p - 1) + p * rng.randint(0, p)
        add(f_terms, key, PadicElement.from_int(field, unit * p ** gamma, prec))
    f = StrictSeries.build(nvars, field, f_terms, cap, prec)

    g_terms: dict = {}
    for _ in range(rng.randint(2, 5)):
        key = expo(rng.randint(0, min(4, cap)), min(2, cap))
        if sum(key) > min(4, cap):
            continue
        add(g_terms, key, PadicElement.from_int(field, rng.randint(-p ** 3, p ** 3), prec))
    g = StrictSeries.build(nvars, field, g_terms, cap, prec)
    return f, g, d


def weierstrass_suite(config: RunConfig) -> SuiteReport:
    field = config.field()
    report = SuiteReport("weierstrass")
    prec_n = 20
    cap = 8
    for i in range(50):
        rng = stream(config.seed, "wdiv", i)
        nvars = rng.randint(1, 3)
        active = nvars - 1
        f, g, d_expected = _random_series_instance(rng, field, nvars, prec_n, cap)
        d = regular_degree(f, active)
        report.expect(f"regular/{i}", d, d_expected)
        if d is None:
            continue
        q, r = weierstrass_divide(g, f, active)
        residual = g - (q * f + r)
        gv = gauss_valuation(residual)
        report.check(f"reconstruct/{i}", residual.is_zero or not gv.is_exact,
                     gv, f">= {prec_n} pi-digits")
        report.check(f"degree/{i}", r.degree_in(active) <= d - 1,
                     r.degree_in(active), d - 1)
        # g + f = (q + 1) f + r; the report digests pin these strings
        one = StrictSeries.build(nvars, field, {(0,) * nvars: PadicElement.one(field, prec_n)},
                                 cap, prec_n)
        q2, r2 = weierstrass_divide(g + f, f, active)
        report.check(f"unique/{i}", q2.is_indistinguishable(q + one)
                     and r2.is_indistinguishable(r), "two starts agree", "agreement mod pi^N")
    for i in range(5):
        rng = stream(config.seed, "wdiv-oracle", i)
        ok, detail = _oracle_cross_check(rng, field, prec_n)
        report.check(f"oracle/{i}", ok, detail, "linear solve agrees")
    return report


def _planted_division(rng, p: int, prec_n: int):
    """(nvars, active, d, f, g, q, r) as integer-coefficient dicts: f is
    regular of degree d in the last variable, with a perturbation of
    valuation >= ceil(prec_n/3), and g = q f + r with deg_active(r) <= d-1.
    By uniqueness of Weierstrass division, (q, r) is the division of g by f."""
    nvars = rng.randint(2, 3)
    active = nvars - 1
    d = rng.randint(1, 2)

    def rand_poly(max_deg, max_active, count):
        terms: dict = {}
        for _ in range(count):
            expo = [0] * nvars
            expo[active] = rng.randint(0, max_active)
            for _ in range(rng.randint(0, max_deg - expo[active])):
                expo[rng.randrange(nvars - 1)] += 1
            terms[tuple(expo)] = terms.get(tuple(expo), 0) + rng.randint(-6, 6)
        return {k: v for k, v in terms.items() if v}

    f = {tuple(d if i == active else 0 for i in range(nvars)): 1}
    for j in range(d):
        if rng.random() < 0.8:
            f[tuple(j if i == active else 0 for i in range(nvars))] = rng.randint(0, 6)
    gamma = _ceil_div(prec_n, 3)
    for expo in rand_poly(1, min(1, d), rng.randint(1, 2)):
        f[expo] = f.get(expo, 0) + p ** gamma * rng.randint(1, p - 1)
    q = rand_poly(3, 3, rng.randint(2, 4))
    r = rand_poly(3, max(0, d - 1), rng.randint(1, 3))
    if not q:
        q = {tuple([0] * nvars): 1}
    g = _poly_mul_exact(q, f)
    for k, v in r.items():
        g[k] = g.get(k, 0) + v
    g = {k: v for k, v in g.items() if v}
    return nvars, active, d, f, g, q, r


def _oracle_cross_check(rng, field: FieldDescriptor, prec_n: int):
    """Divide a planted g by f with the fixed-point division and compare
    with the planted (q, r)."""
    nvars, active, _, f, g, q, r = _planted_division(rng, field.p, prec_n)

    def series(terms):
        return StrictSeries.build(nvars, field,
                                  {k: PadicElement.from_rational(field, v, prec_n)
                                   for k, v in terms.items()},
                                  8, prec_n)

    q_div, r_div = weierstrass_divide(series(g), series(f), active)
    ok = q_div.is_indistinguishable(series(q)) and r_div.is_indistinguishable(series(r))
    # the report digests pin these strings; the planted pair is what the
    # exact-rational solve (tests/oracles.py) returns
    return ok, "division matches rational solve" if ok else "mismatch"


def _poly_mul_exact(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# ball suite
# ---------------------------------------------------------------------------

def balls_suite(config: RunConfig) -> SuiteReport:
    field = config.field()
    report = SuiteReport("balls")
    prec = max(12, config.prec // 2)
    e = field.e

    def sample_point(rng):
        return random_element(rng, field, prec, 0, 3)

    consistency_fail = 0
    for i in range(500):
        rng = stream(config.seed, "balls", i)
        csize = rng.randint(1, 4)
        C = []
        while len(C) < csize:
            cand = sample_point(rng)
            if all(not (cand - c).is_zero for c in C):
                C.append(cand)
        lam = Fraction(rng.randint(0, 2 * e), e)

        def admissible(z):
            return all(not (z - c).is_zero for c in C)

        x = sample_point(rng)
        while not admissible(x):
            x = sample_point(rng)
        if rng.random() < 0.5:
            # biased nearby point to exercise the equal-ball branch
            bump = random_element(rng, field, prec, rng.randint(2, 6), 8)
            y = x + bump
        else:
            y = sample_point(rng)
        while not admissible(y):
            y = sample_point(rng)
        same = balls_mod.same_ball(C, lam, x, y)
        same_via_balls = balls_mod.ball_next(C, lam, x) == balls_mod.ball_next(C, lam, y)
        if same != same_via_balls:
            consistency_fail += 1
        # symmetry and reflexivity
        if balls_mod.same_ball(C, lam, y, x) != same:
            consistency_fail += 1
        if not balls_mod.same_ball(C, lam, x, x):
            consistency_fail += 1
        # monotonicity in lambda
        if same and lam > 0 and not balls_mod.same_ball(C, 0, x, y):
            consistency_fail += 1
        # transitivity through a third point
        z = x + random_element(rng, field, prec, rng.randint(2, 6), 8)
        if admissible(z):
            sxz = balls_mod.same_ball(C, lam, x, z)
            syz = balls_mod.same_ball(C, lam, y, z)
            if same and sxz and not syz:
                consistency_fail += 1
    report.check("criterion_vs_balls", consistency_fail == 0,
                 f"{consistency_fail} failures", "0 failures over seeded instances")

    if field.kind == "base":
        _grid_check(report, field, config)
    return report


def _grid_check(report: SuiteReport, field: FieldDescriptor, config: RunConfig) -> None:
    """Exhaustive partition check on the 6-digit integer grid: every point is
    compared against its bucket representative, buckets are pairwise split."""
    p = field.p
    prec = 10
    points = [PadicElement.from_int(field, k, prec) for k in range(p ** 6)]
    zero = PadicElement.from_int(field, 0, prec)
    one = PadicElement.from_int(field, 1, prec)
    for C, lam in (([zero], Fraction(0)), ([zero, one], Fraction(1))):
        buckets: dict = {}
        for k, x in enumerate(points):
            if any((x - c).is_zero for c in C):
                continue
            ball = balls_mod.ball_next(C, lam, x)
            depth = int(ball.lambda_radius) + 1
            key = (ball.lambda_radius, k % p ** depth)
            buckets.setdefault(key, []).append(x)
        mism = 0
        for members in buckets.values():
            rep = members[0]
            for x in members[1:]:
                if not balls_mod.same_ball(C, lam, rep, x):
                    mism += 1
        reps = [members[0] for members in buckets.values()]
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                if balls_mod.same_ball(C, lam, a, b):
                    mism += 1
        report.check(f"grid/|C|={len(C)},lambda={lam}", mism == 0,
                     f"{mism} mismatches over {len(buckets)} balls", "0 mismatches")


# ---------------------------------------------------------------------------
# lattice suite
# ---------------------------------------------------------------------------

def lattice_suite(config: RunConfig) -> SuiteReport:
    report = SuiteReport("lattice")
    snf_fail = 0
    for i in range(200):
        rng = stream(config.seed, "snf", i)
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        M = lat.matrix([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(c)]
                        for _ in range(r)])
        U, D, V = lat.smith_normal_form(M)
        if lat.mat_mul(lat.mat_mul(U, M), V) != D:
            snf_fail += 1
        if abs(lat.determinant(U)) != 1 or abs(lat.determinant(V)) != 1:
            snf_fail += 1
        diag = [D[k][k] for k in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                snf_fail += 1
            if a and b % a:
                snf_fail += 1
        # rank oracle: the fraction-free elimination, which shares no code
        # with smith_normal_form
        if sum(1 for d in diag if d) != lat.rank(M):
            snf_fail += 1
    report.check("snf/200", snf_fail == 0, f"{snf_fail} failures",
                 "identity, unimodularity, chain, oracle rank")

    # worked examples
    U, D, V = lat.smith_normal_form(lat.matrix([[2, 4], [6, 8]]))
    report.expect("snf/example", [D[0][0], D[1][1]], [2, 4])
    ker = lat.kernel_lattice(lat.matrix([[2, 4]]))
    ok = lat.rank(ker) == 1 and [abs(ker[0][0]), abs(ker[1][0])] == [2, 1]
    report.check("kernel/saturated", ok, ker, "span{(2,-1)}")

    T_full_mult = lat.SubgroupLattice(2, lat.identity(2), lat.zeros(2, 0))
    report.expect("dim_image/example", lat.dim_image(lat.matrix([[1, 0], [0, 0]]), T_full_mult), 1)

    full1 = lat.full_subgroup(1)
    v1 = lat.rotund_check(full1, 3)
    report.check("rotund/full_n1", not v1.refuted, str(v1), "verified")
    skew = lat.SubgroupLattice(2, lat.matrix([[1], [0]]), lat.matrix([[1], [0]]))
    v2 = lat.rotund_check(skew, 2)
    ok = v2.refuted and lat.dim_image(v2.witness, skew) < lat.rank(v2.witness)
    report.check("rotund/refuted_reverified", ok, str(v2), "witness re-verified")
    only_ell = lat.SubgroupLattice(1, lat.zeros(1, 0), lat.identity(1))
    v3 = lat.rotund_check(only_ell, 3)
    report.check("rotund/point_times_E", not v3.refuted, str(v3), "verified")

    vm = lat.lemma_vm_bound(lat.full_subgroup(2), lat.matrix([[1, 0], [0, 0]]))
    report.check("vm/example", (vm.r, vm.bound) == (1, 3)
                 and vm.intersection_dim <= vm.bound,
                 (vm.r, vm.bound, vm.intersection_dim), "(1, 3, <= bound)")

    fibre_fail = 0
    for i in range(40):
        rng = stream(config.seed, "fibre", i)
        n = rng.randint(1, 4)
        k1, k2 = rng.randint(0, n), rng.randint(0, n)
        Vl = lat.SubgroupLattice(
            n,
            lat.matrix([[rng.randint(-4, 4) for _ in range(k1)] for _ in range(n)])
            if k1 else lat.zeros(n, 0),
            lat.matrix([[rng.randint(-4, 4) for _ in range(k2)] for _ in range(n)])
            if k2 else lat.zeros(n, 0))
        M = lat.matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        ker = lat.kernel_lattice(M)
        lhs = Vl.dim
        rhs = lat.dim_image(M, Vl) + lat.lattice_intersection_rank(Vl.mult, ker) \
            + lat.lattice_intersection_rank(Vl.ell, ker)
        if lhs != rhs:
            fibre_fail += 1
    report.check("vm/fibre_identity", fibre_fail == 0, f"{fibre_fail} failures",
                 "dim V = dim MV + dim(V cap ker)")

    diag = lat.matrix([[1], [1]])
    res = lat.persistently_likely(diag, diag, [lat.zeros(2, 0)], 2)
    report.check("plikely/diagonal", res[0].ok and (res[0].lhs, res[0].rhs) == (2, 2),
                 (res[0].lhs, res[0].rhs), "(2, 2)")
    e1 = lat.matrix([[1], [0]])
    res = lat.persistently_likely(e1, e1, [e1], 2)
    report.check("plikely/failing", not res[0].ok and (res[0].lhs, res[0].rhs) == (0, 1),
                 (res[0].lhs, res[0].rhs), "(0, 1) fails")

    report.expect("atypical/1", lat.atypical(1, 1, 1, 3), True)
    report.expect("atypical/2", lat.atypical(0, 1, 2, 3), False)
    report.expect("atypical/3", lat.atypical(2, 2, 2, 2), False)

    field = config.field()
    rng = stream(config.seed, "relations")
    x = random_unit(rng, field, 60)
    rels = lat.relation_search([x, x * 2], 5, slack=config.slack)
    report.expect("relations/planted", rels, [(2, -1)])
    z1 = PadicElement.from_int(field, field.p, 60)
    z2 = z1 * z1
    z3 = z2 * 2 - z1 * 3
    rels = lat.relation_search([z1, z2, z3], 5, slack=config.slack)
    # the relation lattice of (p, p^2, 2p^2-3p) has rank 2, so completeness
    # means the planted vector appears and every hit is an exact relation
    p = field.p
    exact = all(m[0] * p + m[1] * p * p + m[2] * (2 * p * p - 3 * p) == 0 for m in rels)
    report.check("relations/planted3", (3, -2, 1) in rels and exact,
                 rels, "contains (3, -2, 1), all exact")
    zs = [random_unit(stream(config.seed, "relrand", i), field, 60) for i in range(3)]
    rels = lat.relation_search(zs, 10, slack=config.slack)
    report.expect("relations/random_empty", rels, [])

    q = PadicElement.from_int(field, field.p, 60) ** 2
    w = random_unit(stream(config.seed, "multdep"), field, 60)
    found = lat.mult_dependence_mod_kernel(q, [w, w * w], 4, slack=config.slack)
    report.expect("mult/planted", found, [((2, -1), 0)])
    found = lat.mult_dependence_mod_kernel(q, [q * w, w], 4, slack=config.slack)
    report.expect("mult/planted_kernel", found, [((1, -1), 1)])
    us = [random_unit(stream(config.seed, "multrand", i), field, 60) for i in range(2)]
    found = lat.mult_dependence_mod_kernel(q, us, 5, slack=config.slack)
    report.expect("mult/random_empty", found, [])

    return report


SUITES = {
    "exp": exp_suite,
    "tate": tate_suite,
    "weierstrass": weierstrass_suite,
    "balls": balls_suite,
    "lattice": lattice_suite,
}


def run_suite(name: str, config: RunConfig, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](config, **kwargs)
