"""Command-line front end.

Exit status: 0 success or verification pass, 1 verification failure,
2 usage error, 3 precision error.  Structured output is one JSON record per
line with stable key order; PADIC_TATE_SEED overrides --seed when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .balls import ball_next, same_ball
from .errors import (
    AmbiguousAtPrecision,
    DenominatorNotInvertible,
    DivisionByImpreciseZero,
    ImpreciseDistance,
    ImpreciseValuation,
    InsufficientPrecision,
    PadicError,
    ParseError,
    PrecisionCollapse,
    ZeroElement,
)
from .field import PadicElement, parse_extension, rv_class
from .lattice import (
    SubgroupLattice,
    atypical,
    kernel_lattice,
    matrix,
    mult_dependence_mod_kernel,
    persistently_likely,
    rank,
    relation_false_positive_bound,
    relation_search,
    rotund_check,
    smith_normal_form,
)
from .parsing import parse_element
from .series import p_exp, p_log
from .tate import (
    TatePoint,
    curve_add,
    curve_coefficients,
    curve_discriminant,
    j_invariant,
    phi,
)
from .weierstrass import StrictSeries, regular_degree, weierstrass_divide

PRECISION_ERRORS = (
    InsufficientPrecision,
    PrecisionCollapse,
    DivisionByImpreciseZero,
    ImpreciseDistance,
    ImpreciseValuation,
    AmbiguousAtPrecision,
    ZeroElement,
)

USAGE_ERRORS = (ParseError, DenominatorNotInvertible, ValueError)


class _Emitter:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def record(self, **fields) -> None:
        if self.fmt == "structured":
            print(json.dumps(fields))
        else:
            print("  ".join(f"{k}={v}" for k, v in fields.items()))


GLOBAL_DEFAULTS = {"p": 5, "prec": 40, "ext": "base", "seed": 0,
                   "slack": 10, "fmt": "text"}


def _common_options() -> argparse.ArgumentParser:
    """Shared flags, accepted before or after the subcommand."""
    par = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS
    par.add_argument("--p", type=int, default=sup)
    par.add_argument("--prec", type=int, default=sup)
    par.add_argument("--ext", default=sup,
                     help="base | eisenstein:e=E,c=C | unramified:f=F | unramified:poly=c0,c1,...")
    par.add_argument("--seed", type=int, default=sup)
    par.add_argument("--slack", type=int, default=sup)
    par.add_argument("--format", dest="fmt", choices=("text", "structured"), default=sup)
    return par


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared after it:
    parsing reads a parser and never changes it."""
    from .harness import SUITES

    common = _common_options()
    top = argparse.ArgumentParser(prog="padic-tate", parents=[common],
                                  description="p-adic arithmetic, the Tate curve, "
                                              "and lattice intersection checks")
    sub = top.add_subparsers(dest="command", required=True)

    def leaf(group, name, **kw):
        return group.add_parser(name, parents=[common], **kw)

    s = leaf(sub, "exp", help="p-adic exponential")
    s.add_argument("--x", required=True)

    s = leaf(sub, "log", help="p-adic logarithm")
    s.add_argument("--y", required=True)

    s = leaf(sub, "rv", help="leading-term class")
    s.add_argument("--x", required=True)
    s.add_argument("--lambda", dest="lam", default="0")

    tate = sub.add_parser("tate", help="Tate curve operations")
    tsub = tate.add_subparsers(dest="tate_command", required=True)
    for name in ("invariants", "j"):
        t = leaf(tsub, name)
        t.add_argument("--q", required=True)
    t = leaf(tsub, "map")
    t.add_argument("--q", required=True)
    t.add_argument("--u", required=True)
    t = leaf(tsub, "add")
    t.add_argument("--q", required=True)
    t.add_argument("--x1", required=True)
    t.add_argument("--y1", required=True)
    t.add_argument("--x2", required=True)
    t.add_argument("--y2", required=True)
    for name in ("verify-hom", "verify-ode"):
        t = leaf(tsub, name)
        t.add_argument("--q", required=True)
        t.add_argument("--trials", type=int, default=20)

    s = leaf(sub, "wdiv", help="Weierstrass division g = q*f + r")
    s.add_argument("--g", required=True, help="series file for the dividend")
    s.add_argument("--f", required=True, help="series file for the divisor")
    s.add_argument("--active", type=int, default=None,
                   help="1-based active variable (default: the last)")
    s.add_argument("--degree-cap", type=int, default=8)

    balls = sub.add_parser("balls", help="ball combinatorics")
    bsub = balls.add_subparsers(dest="balls_command", required=True)
    b = leaf(bsub, "next")
    b.add_argument("--C", required=True, help="comma-separated element literals")
    b.add_argument("--lambda", dest="lam", default="0")
    b.add_argument("--x", required=True)
    b = leaf(bsub, "same")
    b.add_argument("--C", required=True)
    b.add_argument("--lambda", dest="lam", default="0")
    b.add_argument("--x", required=True)
    b.add_argument("--y", required=True)

    lot = sub.add_parser("lattice", help="integer matrix calculus")
    lsub = lot.add_subparsers(dest="lattice_command", required=True)
    for name in ("smith", "kernel"):
        m = leaf(lsub, name)
        m.add_argument("--matrix", required=True, help="JSON matrix file or inline rows a,b;c,d")

    geom = sub.add_parser("geom", help="subgroup-coset geometry")
    gsub = geom.add_subparsers(dest="geom_command", required=True)
    g = leaf(gsub, "rotund")
    g.add_argument("--lattice", required=True, help="JSON subgroup lattice file")
    g.add_argument("--height", type=int, default=3)
    g = leaf(gsub, "plikely")
    g.add_argument("--V", required=True)
    g.add_argument("--S", required=True)
    g.add_argument("--T", action="append", default=[],
                   help="quotient lattice (repeatable; omit for T = 0)")
    g.add_argument("--n", type=int, required=True)
    g = leaf(gsub, "atypical")
    g.add_argument("--dims", required=True, help="dimX,dimV,dimW,dimZ")

    rel = sub.add_parser("relations", help="bounded-height relation probers")
    rsub = rel.add_subparsers(dest="relations_command", required=True)
    r = leaf(rsub, "search")
    r.add_argument("--z", action="append", required=True)
    r.add_argument("--height", type=int, default=10)
    r = leaf(rsub, "mult")
    r.add_argument("--q", required=True)
    r.add_argument("--u", action="append", required=True)
    r.add_argument("--height", type=int, default=10)

    h = leaf(sub, "harness", help="run a seeded verification suite")
    h.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    h.add_argument("--q", default=None, help="q literal for the tate suite")
    h.add_argument("--trials", type=int, default=None)
    return top


def _read_json(path: str) -> dict:
    """Parse an input file; a missing file, a top-level value that is not an
    object, or a missing key is a usage error."""

    class Entry(dict):
        def __missing__(self, key):
            raise ValueError(f"{path}: missing key {key!r}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_hook=Entry)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _json_int(path: str, data: dict, key: str, default=None) -> int:
    value = data[key] if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: {key} must be an integer, got {value!r}")
    return value


def _load_matrix(source: str):
    if os.path.exists(source):
        return matrix(_read_json(source)["entries"])
    rows = [[int(x) for x in row.split(",")] for row in source.split(";")]
    return matrix(rows)


def _load_lattice(path: str) -> SubgroupLattice:
    data = _read_json(path)
    n = _json_int(path, data, "n")
    mult = matrix(data["mult"]) if data.get("mult") else ()
    ell = matrix(data["ell"]) if data.get("ell") else ()
    return SubgroupLattice(n, mult, ell)


def _load_series(path: str, field, prec: int, cap: int) -> StrictSeries:
    data = _read_json(path)
    entries = data["terms"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e["exp"], list)
            and all(isinstance(x, int) for x in e["exp"])
            and isinstance(e["coeff"], str) for e in entries):
        raise ValueError(f"{path}: terms must be a list of "
                         '{"exp": [int, ...], "coeff": "literal"} objects')
    terms = {tuple(e["exp"]): parse_element(e["coeff"], field, prec) for e in entries}
    return StrictSeries.build(_json_int(path, data, "nvars"), field, terms,
                              _json_int(path, data, "degree_cap", cap), prec)


def _series_record(series: StrictSeries) -> dict:
    return {
        "nvars": series.nvars,
        "degree_cap": series.degree_cap,
        "terms": [{"exp": list(expo), "coeff": _bare_literal(c)}
                  for expo, c in series.coeffs.items()],
    }


def _bare_literal(x: PadicElement) -> str:
    """Digit expansion without the O-term, re-parseable by the grammar."""
    text = str(x)
    return text.rsplit(" + O(", 1)[0]


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv, namespace=argparse.Namespace(**GLOBAL_DEFAULTS))
    if os.environ.get("PADIC_TATE_SEED"):
        args.seed = int(os.environ["PADIC_TATE_SEED"])
    for name in ("trials", "active"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be >= 1, got {value}")
    emit = _Emitter(args.fmt)
    field = parse_extension(args.p, args.ext)
    prec = args.prec
    # verification commands validate prec > slack via RunConfig; plain
    # evaluation only uses slack as a local budget, clamped to the precision
    args.eff_slack = min(args.slack, max(args.prec - 1, 0))

    def config():
        from .harness import RunConfig

        return RunConfig(p=args.p, prec=args.prec, ext=args.ext,
                         seed=args.seed, slack=args.slack)

    def elt(text: str) -> PadicElement:
        return parse_element(text, field, prec)

    command = args.command
    if command == "exp":
        emit.record(op="exp", x=args.x, result=str(p_exp(elt(args.x))))
        return 0
    if command == "log":
        emit.record(op="log", y=args.y, result=str(p_log(elt(args.y))))
        return 0
    if command == "rv":
        cls = rv_class(elt(args.x), _fraction_arg(args.lam))
        emit.record(op="rv", valuation=str(cls.valuation),
                    digits=str(list(cls.leading_digits)), lam=str(cls.lam))
        return 0
    if command == "tate":
        return _tate_command(args, emit, field, prec, config)
    if command == "wdiv":
        g = _load_series(args.g, field, prec, args.degree_cap)
        f = _load_series(args.f, field, prec, args.degree_cap)
        active = (args.active - 1) if args.active is not None else g.nvars - 1
        d = regular_degree(f, active)
        if d is None:
            emit.record(op="wdiv", ok=False, reason="divisor not regular")
            return 1
        q, r = weierstrass_divide(g, f, active)
        emit.record(op="wdiv", ok=True, degree=d,
                    q=json.dumps(_series_record(q)), r=json.dumps(_series_record(r)))
        return 0
    if command == "balls":
        C = [elt(c) for c in args.C.split(",")]
        lam = _fraction_arg(args.lam)
        if args.balls_command == "next":
            ball = ball_next(C, lam, elt(args.x))
            emit.record(op="balls.next", center=str(ball.center),
                        radius=str(ball.lambda_radius))
        else:
            verdict = same_ball(C, lam, elt(args.x), elt(args.y))
            emit.record(op="balls.same", same=verdict)
        return 0
    if command == "lattice":
        M = _load_matrix(args.matrix)
        if args.lattice_command == "smith":
            U, D, V = smith_normal_form(M)
            emit.record(op="lattice.smith", D=json.dumps([list(r) for r in D]),
                        U=json.dumps([list(r) for r in U]),
                        V=json.dumps([list(r) for r in V]), rank=rank(M))
        else:
            K = kernel_lattice(M)
            emit.record(op="lattice.kernel", basis=json.dumps([list(r) for r in K]),
                        rank=rank(K))
        return 0
    if command == "geom":
        return _geom_command(args, emit)
    if command == "relations":
        return _relations_command(args, emit, field, prec, args.eff_slack)
    if command == "harness":
        return _harness_command(args, emit, config())
    parser.error(f"unhandled command {command}")
    return 2


def _tate_command(args, emit, field, prec, config) -> int:
    from .harness import tate_suite

    slack = args.eff_slack
    q = parse_element(args.q, field, prec)
    sub = args.tate_command
    if sub in ("invariants", "j"):
        curve = curve_coefficients(q)
        j = j_invariant(curve)
        if sub == "j":
            emit.record(op="tate.j", j=str(j), v_j=str(j.valuation().value),
                        prec=j.abs_prec)
            return 0
        emit.record(op="tate.invariants", a4=str(curve.a4), a6=str(curve.a6),
                    discriminant=str(curve_discriminant(curve)), j=str(j),
                    v_j=str(j.valuation().value))
        return 0
    if sub == "map":
        curve = curve_coefficients(q)
        pt = phi(curve, parse_element(args.u, field, prec), slack=slack)
        if pt.is_identity:
            emit.record(op="tate.map", kind="identity")
        else:
            emit.record(op="tate.map", kind="affine", x=str(pt.x), y=str(pt.y))
        return 0
    if sub == "add":
        curve = curve_coefficients(q)
        P = TatePoint.affine(parse_element(args.x1, field, prec),
                             parse_element(args.y1, field, prec))
        Q = TatePoint.affine(parse_element(args.x2, field, prec),
                             parse_element(args.y2, field, prec))
        total = curve_add(curve, P, Q, slack=slack)
        if total.is_identity:
            emit.record(op="tate.add", kind="identity")
        else:
            emit.record(op="tate.add", kind="affine", x=str(total.x), y=str(total.y))
        return 0
    if sub in ("verify-hom", "verify-ode"):
        cfg = config()
        report = tate_suite(cfg, q_literal=args.q, trials=args.trials)
        prefixes = ("hom/",) if sub == "verify-hom" else ("ode/", "xprime/")
        failures = 0
        for rec in report.records:
            if not rec.name.startswith(prefixes):
                continue
            if not rec.ok:
                failures += 1
            emit.record(name=rec.name, ok=rec.ok,
                        residual_valuation=rec.measured.lstrip(">="),
                        prec=cfg.prec)
        return 0 if failures == 0 else 1
    raise ValueError(f"unknown tate subcommand {sub}")


def _geom_command(args, emit) -> int:
    sub = args.geom_command
    if sub == "rotund":
        V = _load_lattice(args.lattice)
        verdict = rotund_check(V, args.height)
        emit.record(op="geom.rotund", refuted=verdict.refuted,
                    witness=json.dumps([list(r) for r in verdict.witness])
                    if verdict.witness else None,
                    height=verdict.height)
        return 1 if verdict.refuted else 0
    if sub == "plikely":
        V = _load_matrix(args.V)
        S = _load_matrix(args.S)
        Ts = [_load_matrix(t) for t in args.T] or [()]
        verdicts = persistently_likely(V, S, Ts, args.n)
        bad = 0
        for v in verdicts:
            emit.record(op="geom.plikely", index=v.index, ok=v.ok, lhs=v.lhs, rhs=v.rhs)
            bad += 0 if v.ok else 1
        return 0 if bad == 0 else 1
    if sub == "atypical":
        dims = [int(x) for x in args.dims.split(",")]
        if len(dims) != 4:
            raise ValueError("--dims needs dimX,dimV,dimW,dimZ")
        verdict = atypical(*dims)
        emit.record(op="geom.atypical", atypical=verdict)
        return 0
    raise ValueError(f"unknown geom subcommand {sub}")


def _relations_command(args, emit, field, prec, slack) -> int:
    sub = args.relations_command
    if sub == "search":
        zs = [parse_element(z, field, prec) for z in args.z]
        found = relation_search(zs, args.height, slack=slack)
        threshold = min(z.abs_prec for z in zs) - slack
        bound = relation_false_positive_bound(len(zs), args.height, field.p,
                                              field.f, threshold)
        emit.record(op="relations.search",
                    relations=json.dumps([list(m) for m in found]),
                    count=len(found), height=args.height,
                    false_positive_bound=f"{bound:.3e}",
                    note="relations to precision, not exact")
        return 0
    if sub == "mult":
        q = parse_element(args.q, field, prec)
        us = [parse_element(u, field, prec) for u in args.u]
        found = mult_dependence_mod_kernel(q, us, args.height, slack=slack)
        emit.record(op="relations.mult",
                    relations=json.dumps([[list(m), k] for m, k in found]),
                    count=len(found), height=args.height,
                    note="relations to precision, not exact")
        return 0
    raise ValueError(f"unknown relations subcommand {sub}")


def _harness_command(args, emit, config) -> int:
    from .harness import SUITES, run_suite

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        kwargs = {}
        if name == "tate":
            kwargs["q_literal"] = args.q or f"{config.p}^2"
            if args.trials is not None:
                kwargs["trials"] = args.trials
        elif name == "exp" and args.trials is not None:
            kwargs["trials"] = args.trials
        report = run_suite(name, config, **kwargs)
        for rec in report.records:
            if not rec.ok:
                failures += 1
            emit.record(suite=name, name=rec.name, ok=rec.ok,
                        measured=rec.measured, threshold=rec.threshold)
        emit.record(suite=name, summary=True, ok=report.ok,
                    records=len(report.records))
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = dispatch(argv)
    except PRECISION_ERRORS as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        code = 3
    except USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    except PadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
