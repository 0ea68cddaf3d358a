"""The four benchmark workloads: inputs, requests and their checks.

Each workload is a ``Workload`` with four functions:

* ``setup()`` builds the fields and curves every request shares;
* ``gen(ctx, seed, i, prev)`` makes the input of request ``i`` from
  ``prng.stream(seed, <workload>, i)`` (``prev`` is the previous request's
  ``(input, output)``; ``hiprec`` feeds that output into its log request);
* ``run(ctx, inp)`` is the timed request, calling only the public API;
* ``check(ctx, inp, out)`` verifies one result outside the timed region and
  returns ``(ok, margin, canonical)``: ``margin`` is the smallest verified
  residual minus ``prec - slack`` in pi-digits (``None`` when the request
  has no p-adic residual) and ``canonical`` is a string that the result
  digest hashes;
* ``counters(inp, out, err)`` gives counts the benchmark reports for a layer
  that the tracer cannot see from outside (the relation search's candidates).

Where a workload mixes request kinds or input classes of different cost,
they follow a fixed cycle, so every run has the same mix and the median and
p90 fall inside a dense group of requests rather than in a gap between two.

Inputs come only from the public ``prng`` helpers and public constructors.
The two sampling rules the harness uses (kernel distance for the Tate pair,
the convergence ball of exp) are restated here so that the benchmark does
not depend on harness internals.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import padic_tate as pt
from padic_tate import lattice as lat
from padic_tate import prng
from padic_tate import tate as tt
from padic_tate.field import PadicElement
from padic_tate.weierstrass import StrictSeries

SLACK = 10


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    gen: Callable
    run: Callable
    check: Callable
    counters: Callable = lambda inp, out, err: {}


def _digits(v, e: int) -> Fraction:
    """A valuation result in pi-digits (a lower bound when not exact)."""
    return v.value * e


def _elt(x: PadicElement) -> str:
    return f"{x.shift}:{x.coeffs}:{x.abs_prec}"


# ---------------------------------------------------------------------------
# tate: the uniformization pipeline at prec 40
# ---------------------------------------------------------------------------

TATE_PREC = 40


def _kernel_distance_ok(q: PadicElement, u: PadicElement) -> bool:
    """The reduction of u stays at least one pi-digit off the kernel q^Z:
    v(u_red - 1) <= 1 digit, so the principal part 3*v(1-u) fits the slack."""
    u_red, _ = pt.reduce_to_fundamental(q, u)
    gap = (u_red - 1).valuation()
    return not gap.is_exact or gap.value * q.field.e <= 1


def _sample_pair(rng, prec: int, q: PadicElement, u1_shift: int):
    """u1 of valuation u1_shift and u2 in the fundamental domain, each a digit
    off the kernel, and so are u1*u2 and u1/u2: either degeneracy collapses
    the comparison precision below the slack."""
    def sample(lo, hi):
        while True:
            u = prng.random_element(rng, q.field, prec, lo, hi)
            if _kernel_distance_ok(q, u):
                return u

    while True:
        u1, u2 = sample(u1_shift, u1_shift), sample(0, q.shift - 1)
        if _kernel_distance_ok(q, u1 * u2) and _kernel_distance_ok(q, u1 * u2.invert()):
            return u1, u2


def _tate_setup():
    curves = []
    for p in (5, 2):
        field = pt.make_field(p)
        q = PadicElement.from_int(field, p * p, TATE_PREC)
        curves.append(pt.curve_coefficients(q))
    return {"curves": curves}


# v(u1) sets how far the Tate series of the two ODE checks at u1 run (to
# degree 40 at v(u1) = 1, 20 at v(u1) = 0) and so splits the requests into a
# fast and a slow group; the cycle 0, 1, 1 puts the median and the p90 inside
# the slow group rather than in the gap between the two
TATE_U1_SHIFTS = (0, 1, 1)


def _tate_gen(ctx, seed, i, prev):
    curve = ctx["curves"][i % 2]
    rng = prng.stream(seed, "tate", i)
    u1_shift = TATE_U1_SHIFTS[(i // 2) % len(TATE_U1_SHIFTS)]
    u1, u2 = _sample_pair(rng, TATE_PREC, curve.q, u1_shift)
    return curve, u1, u2


def _tate_run(ctx, inp):
    curve, u1, u2 = inp
    P1 = pt.phi(curve, u1, slack=SLACK)
    P2 = pt.phi(curve, u2, slack=SLACK)
    P12 = pt.phi(curve, u1 * u2, slack=SLACK)
    total = pt.curve_add(curve, P1, P2, slack=SLACK)
    ode = pt.verify_ode(curve, u1, slack=SLACK)
    xprime = tt.relation_residual(curve, u1, slack=SLACK)
    return P1, P2, P12, total, ode, xprime


def _tate_check(ctx, inp, out):
    curve = inp[0]
    P1, P2, P12, total, ode, xprime = out
    if any(P.is_identity for P in (P1, P2, P12, total)):
        return False, None, "identity"
    e = curve.q.field.e
    residuals = {
        "hom": tt.point_difference_valuation(P12, total),
        "curve": tt.curve_equation_residual(curve, P1),
        "ode": ode,
        "xprime": xprime,
    }
    floor = TATE_PREC - SLACK
    digits = {k: _digits(v, e) for k, v in residuals.items()}
    ok = all(d >= floor for d in digits.values())
    canonical = ";".join(
        [f"{k}={v}" for k, v in residuals.items()]
        + [_elt(c) for c in (P12.x, P12.y, total.x, total.y)])
    return ok, min(digits.values()) - floor, canonical


# ---------------------------------------------------------------------------
# hiprec: exp and log at prec 640 on the convergence ball
# ---------------------------------------------------------------------------

HIPREC_PREC = 640


def _ball_edge_shift(field) -> int:
    """The smallest uniformizer shift strictly inside the convergence ball
    v(x) > 1/(p-1)."""
    return field.e // (field.p - 1) + 1


# Every x sits this many uniformizer shifts inside the ball's edge.  The
# shift sets the number of series terms; one shift per field makes six
# request classes (3 fields x exp, log) of about 45 requests a run each, so
# the median falls between two neighbouring classes and the p90 inside the
# slowest.  At the edge shift itself an exp over the cubic extension of Q_3
# takes 4x longer than one shift in, a thin tail that set the p90 from a
# handful of requests.
HIPREC_SHIFT_IN = 2


def _hiprec_setup():
    return {"fields": [pt.make_field(2),
                       pt.make_field(5, "eisenstein", e=4, c=-1),
                       pt.make_field(3, "unramified", f=3)]}


def _hiprec_gen(ctx, seed, i, prev):
    """Even requests: exp of a fresh x; odd requests: log of that exp.  The
    pairs rotate through the three fields.

    An input is (op, x, argument), x being the exp argument of the pair."""
    if i % 2:
        (_, x, _), y = prev
        return "log", x, y
    pair = i // 2
    field = ctx["fields"][pair % 3]
    shift = _ball_edge_shift(field) + HIPREC_SHIFT_IN
    x = prng.random_element(prng.stream(seed, "hiprec", pair), field, HIPREC_PREC,
                            shift, shift)
    return "exp", x, x


def _hiprec_run(ctx, inp):
    op, _, arg = inp
    return pt.p_exp(arg) if op == "exp" else pt.p_log(arg)


def _hiprec_check(ctx, inp, out):
    op, x, _ = inp
    if op == "exp":
        image = (out - 1).valuation()
        ok = image.is_exact and image.value == x.valuation().value
        return ok, None, f"exp:{_elt(out)}"
    floor = HIPREC_PREC - SLACK
    digits = _digits((out - x).valuation(), x.field.e)
    return digits >= floor, digits - floor, f"log:{_elt(out)}"


# ---------------------------------------------------------------------------
# short: ball, Weierstrass, relation and CLI requests at low precision
# ---------------------------------------------------------------------------

SHORT_PREC = 20
# the CLI takes two slots of five: with five equal slots the median falls in
# the middle kind and the p90 in the middle of the slowest
SHORT_KINDS = ("ball", "cli", "wdiv", "relation", "cli")
REL_PREC = 60
REL_HEIGHT = 4
WDIV_CAP = 8
CLI_COMMANDS = ("balls same", "rv", "exp", "log")


def _short_setup():
    # the package does not load its CLI module, so set-up imports it here
    return {"field": pt.make_field(5), "cli": importlib.import_module("padic_tate.cli")}


def _ball_input(rng, field):
    def point():
        return prng.random_element(rng, field, SHORT_PREC, 0, 3)

    def admissible(z, C):
        return all(not (z - c).is_zero for c in C)

    C = []
    for _ in range(rng.randint(1, 4)):
        cand = point()
        while not admissible(cand, C):
            cand = point()
        C.append(cand)
    lam = Fraction(rng.randint(0, 2 * field.e), field.e)
    x = point()
    while not admissible(x, C):
        x = point()
    if rng.random() < 0.5:
        # a nearby point, so the equal-ball branch is exercised
        y = x + prng.random_element(rng, field, SHORT_PREC, rng.randint(2, 6), 8)
    else:
        y = point()
    while not admissible(y, C):
        y = point()
    return C, lam, x, y


def _wdiv_input(rng, field):
    """(g, f, active, d): f monic of degree d <= 3 in the last variable plus a
    perturbation of valuation >= ceil(prec/3), which keeps the contraction
    within three passes and every product inside the degree cap."""
    nvars = rng.randint(1, 3)
    active = nvars - 1
    d = rng.randint(1, 3)
    p, prec, cap = field.p, SHORT_PREC, WDIV_CAP

    def expo(active_deg, others):
        out = [0] * nvars
        out[active] = active_deg
        for _ in range(others if nvars > 1 else 0):
            out[rng.randrange(nvars - 1)] += 1
        return tuple(min(x, cap) for x in out)

    def add(terms, key, coeff):
        if not coeff.is_zero:
            terms[key] = terms[key] + coeff if key in terms else coeff

    f_terms = {expo(d, 0): PadicElement.one(field, prec)}
    for j in range(d):
        add(f_terms, expo(j, 0), PadicElement.from_int(field, rng.randint(0, p ** 3), prec))
    gamma = -(-prec // 3) + rng.randint(0, 2)
    for _ in range(rng.randint(1, 2)):
        unit = rng.randint(1, p - 1) + p * rng.randint(0, p)
        add(f_terms, expo(rng.randint(0, min(2, d)), rng.randint(0, 1)),
            PadicElement.from_int(field, unit * p ** gamma, prec))
    g_terms = {}
    for _ in range(rng.randint(2, 5)):
        key = expo(rng.randint(0, 4), 2)
        if sum(key) <= 4:
            add(g_terms, key, PadicElement.from_int(field, rng.randint(-p ** 3, p ** 3), prec))
    f = StrictSeries.build(nvars, field, f_terms, cap, prec)
    g = StrictSeries.build(nvars, field, g_terms, cap, prec)
    return g, f, active, d


def _relation_input(rng, field, planted: bool):
    z = [prng.random_unit(rng, field, REL_PREC) for _ in range(2)]
    if not planted:
        return z + [prng.random_unit(rng, field, REL_PREC)], None
    while True:
        a, b = rng.randint(-REL_HEIGHT, REL_HEIGHT), rng.randint(-REL_HEIGHT, REL_HEIGHT)
        if (a, b) != (0, 0):
            break
    m = (a, b, -1)
    lead = next(x for x in m if x)
    if lead < 0:
        m = tuple(-x for x in m)
    return z + [z[0] * a + z[1] * b], m


def _cli_input(rng, field):
    """argv for one CLI call with integer literals, and the library call that
    must print the same result."""
    p = field.p
    common = ["--p", str(p), "--prec", str(SHORT_PREC)]
    command = CLI_COMMANDS[rng.randrange(len(CLI_COMMANDS))]
    if command == "balls same":
        values = rng.sample(range(1, 10 ** 6), rng.randint(3, 5))
        C, (x, y) = values[:-2], values[-2:]
        lam = rng.randint(0, 2)
        argv = ["balls", "same", "--C", ",".join(map(str, C)), "--lambda", str(lam),
                "--x", str(x), "--y", str(y)]
        return argv + common, ("balls same", C, lam, x, y)
    if command == "rv":
        x = rng.randint(1, 10 ** 6)
        lam = rng.randint(0, 3)
        return ["rv", "--x", str(x), "--lambda", str(lam)] + common, ("rv", x, lam)
    if command == "exp":
        x = p * rng.randint(1, 10 ** 6)
        return ["exp", "--x", str(x)] + common, ("exp", x)
    y = 1 + p * rng.randint(1, 10 ** 6)
    return ["log", "--y", str(y)] + common, ("log", y)


def _short_gen(ctx, seed, i, prev):
    field = ctx["field"]
    kind = SHORT_KINDS[i % len(SHORT_KINDS)]
    rng = prng.stream(seed, "short", i)
    if kind == "ball":
        return kind, _ball_input(rng, field)
    if kind == "wdiv":
        return kind, _wdiv_input(rng, field)
    if kind == "relation":
        return kind, _relation_input(rng, field, planted=(i // len(SHORT_KINDS)) % 2 == 0)
    return kind, _cli_input(rng, field)


def _short_run(ctx, inp):
    kind, data = inp
    if kind == "ball":
        C, lam, x, y = data
        return pt.same_ball(C, lam, x, y), pt.ball_next(C, lam, x), pt.ball_next(C, lam, y)
    if kind == "wdiv":
        g, f, active, _ = data
        return pt.weierstrass_divide(g, f, active)
    if kind == "relation":
        return pt.relation_search(data[0], REL_HEIGHT, slack=SLACK)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ctx["cli"].main(data[0])
    return code, buf.getvalue()


def _cli_expected(field, call) -> str:
    """The text record the CLI prints, computed by the library directly."""
    def elt(n):
        return PadicElement.from_int(field, n, SHORT_PREC)

    op = call[0]
    if op == "balls same":
        _, C, lam, x, y = call
        return f"op=balls.same  same={pt.same_ball([elt(c) for c in C], lam, elt(x), elt(y))}\n"
    if op == "rv":
        _, x, lam = call
        cls = pt.rv_class(elt(x), lam)
        return (f"op=rv  valuation={cls.valuation}  digits={list(cls.leading_digits)}"
                f"  lam={cls.lam}\n")
    if op == "exp":
        return f"op=exp  x={call[1]}  result={pt.p_exp(elt(call[1]))}\n"
    return f"op=log  y={call[1]}  result={pt.p_log(elt(call[1]))}\n"


def _short_check(ctx, inp, out):
    kind, data = inp
    field = ctx["field"]
    if kind == "ball":
        same, bx, by = out
        return same == (bx == by), None, f"ball:{same}:{bx.lambda_radius}:{by.lambda_radius}"
    if kind == "wdiv":
        g, f, active, d = data
        q, r = out
        residual = g - (q * f + r)
        ok = (pt.regular_degree(f, active) == d
              and (residual.is_zero or not pt.gauss_valuation(residual).is_exact)
              and r.degree_in(active) <= d - 1)
        terms = ",".join(f"{k}>{_elt(c)}" for s in (q, r) for k, c in s.coeffs.items())
        return ok, None, f"wdiv:{terms}"
    if kind == "relation":
        z, planted = data
        floor = REL_PREC - SLACK
        exact = all(
            _digits(sum((zi * m for zi, m in zip(z, vec)), PadicElement.zero(field, REL_PREC))
                    .valuation(), field.e) >= floor
            for vec in out)
        ok = exact and (out == [] if planted is None else planted in out)
        return ok, None, f"relation:{out}"
    code, text = out
    ok = code == 0 and text == _cli_expected(field, data[1])
    return ok, None, f"cli:{code}:{text}"


def _short_counters(inp, out, err):
    """Every relation search scans the (2H+1)^n height box."""
    if inp[0] != "relation":
        return {}
    return {"relation_candidates": (2 * REL_HEIGHT + 1) ** len(inp[1][0]),
            "relation_hits": len(out) if err is None else 0}


# ---------------------------------------------------------------------------
# lattice: exact integer work, no p-adic arithmetic
# ---------------------------------------------------------------------------

LATTICE_KINDS = ("snf", "kernel", "rotund")


def _lattice_setup():
    return {}


def _random_subgroup(rng, n: int, lo: int, hi: int) -> lat.SubgroupLattice:
    def part(k):
        if not k:
            return lat.zeros(n, 0)
        return lat.matrix([[rng.randint(lo, hi) for _ in range(k)] for _ in range(n)])

    return lat.SubgroupLattice(n, part(rng.randint(0, n)), part(rng.randint(0, n)))


def _lattice_gen(ctx, seed, i, prev):
    kind = LATTICE_KINDS[i % len(LATTICE_KINDS)]
    rng = prng.stream(seed, "lattice", i)
    if kind == "snf":
        # 6..8 rows and columns cost alike (about 2-5 ms), and these requests
        # hold the median; smaller ones would scatter it among the kernel
        # requests
        r, c = rng.randint(6, 8), rng.randint(6, 8)
        return kind, lat.matrix([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(c)]
                                 for _ in range(r)])
    if kind == "kernel":
        # n x n of rank < n: the last row is a combination of the others,
        # which lemma_vm_bound requires
        n = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
        return kind, (lat.matrix(rows), _random_subgroup(rng, n, -4, 4))
    if (i // len(LATTICE_KINDS)) % 2 == 0:
        return kind, (_random_subgroup(rng, 2, -2, 2), rng.randint(1, 3))
    # full-rank parts: dim(MV) = 2 rank(M), so the search must run through
    # every candidate and verify; these set the p90
    parts = []
    while len(parts) < 2:
        L = lat.matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        if lat.determinant(L):
            parts.append(L)
    return kind, (lat.SubgroupLattice(3, *parts), 1)


def _lattice_run(ctx, inp):
    kind, data = inp
    if kind == "snf":
        return pt.smith_normal_form(data)
    if kind == "kernel":
        M, V = data
        return pt.kernel_lattice(M), pt.lemma_vm_bound(V, M)
    V, height = data
    return pt.rotund_check(V, height)


def _divisibility_chain(diag) -> bool:
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return False
    return all(d >= 0 for d in diag)


def _rotund_expected(V: lat.SubgroupLattice, height: int) -> bool:
    """Whether some M of entry height <= H has dim(MV) < rank M, worked out
    without rotund_check's search.  Both sides depend only on the row space
    of M.  When both parts of V have full rank, dim(MV) = 2 rank M, so never.
    For n = 2 a row space is the plane, where dim(MV) = dim V and M = I has
    height 1, or a line spanned by a primitive row r of height <= H, where
    dim(MV) < 1 exactly when r annihilates both parts."""
    n = V.n
    if lat.rank(V.mult) == n and lat.rank(V.ell) == n:
        return False
    if n != 2:
        raise ValueError(f"no reference verdict for n = {n} with a part of lower rank")
    if V.dim < 2:
        return True
    span = range(-height, height + 1)
    return any(pt.dim_image(lat.matrix([[a, b], [0, 0]]), V) == 0
               for a in span for b in span if math.gcd(a, b) == 1)


def _lattice_check(ctx, inp, out):
    kind, data = inp
    if kind == "snf":
        U, D, V = out
        r, c = lat.shape(data)
        diag = [D[k][k] for k in range(min(r, c))]
        off_diag = all(D[a][b] == 0 for a in range(r) for b in range(c) if a != b)
        ok = (lat.mat_mul(lat.mat_mul(U, data), V) == D
              and abs(lat.determinant(U)) == 1 and abs(lat.determinant(V)) == 1
              and off_diag and _divisibility_chain(diag))
        return ok, None, f"snf:{diag}"
    if kind == "kernel":
        M, V = data
        K, vm = out
        n = len(M)
        rank_m = lat.rank(M)
        nullity = len(K[0]) if K and K[0] else 0
        kernel_ok = nullity == n - rank_m and (nullity == 0 or (
            lat.rank(K) == nullity and not any(x for row in lat.mat_mul(M, K) for x in row)))
        ok = (kernel_ok and vm.r == n - rank_m and vm.bound == V.dim - n + vm.r
              and V.dim == vm.image_dim + vm.intersection_dim)
        return ok, None, f"kernel:{K}:{vm}"
    V, height = data
    ok = out.height == height and out.refuted == _rotund_expected(V, height)
    if ok and out.refuted:
        W = out.witness
        ok = (max(abs(x) for row in W for x in row) <= height
              and pt.dim_image(W, V) < lat.rank(W))
    return ok, None, f"rotund:{out.refuted}:{out.witness}"


WORKLOADS = {
    "tate": Workload("tate", _tate_setup, _tate_gen, _tate_run, _tate_check),
    "hiprec": Workload("hiprec", _hiprec_setup, _hiprec_gen, _hiprec_run, _hiprec_check),
    "short": Workload("short", _short_setup, _short_gen, _short_run, _short_check,
                      _short_counters),
    "lattice": Workload("lattice", _lattice_setup, _lattice_gen, _lattice_run,
                        _lattice_check),
}
