"""Command-line front end.

Exit status: 0 success or verification pass, 1 verification failure, 2 usage
or output error, 3 precision error.  Structured output is one JSON record per
line with stable key order; PADIC_TATE_SEED overrides --seed when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .balls import ball_next, same_ball
from .errors import PadicError, PrecisionError, UsageError
from .field import _COUNT_DIGITS, DEFAULT_SLACK, MAX_PREC, PadicElement, parse_extension, rv_class
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

# the keys of harness.SUITES, sorted; listed here so that building the
# parser does not import the harness
SUITE_NAMES = ("balls", "exp", "lattice", "tate", "weierstrass")

GLOBAL_DEFAULTS = {"p": 5, "prec": 40, "ext": "base", "seed": 0,
                   "slack": DEFAULT_SLACK, "fmt": "text"}

# the least --lambda numerator or denominator that is refused
_TOO_MANY_DIGITS = 10 ** _COUNT_DIGITS


class _Context:
    """What every handler may use besides its arguments: the output record,
    the field and precision of element literals, and the slack budget."""

    def __init__(self, args):
        self.args = args
        self.field = parse_extension(args.p, args.ext)
        self.prec = args.prec
        # verification commands validate prec > slack via RunConfig; plain
        # evaluation only uses slack as a local budget, clamped to the precision
        self.slack = min(args.slack, args.prec - 1)

    def emit(self, **fields) -> None:
        if self.args.fmt == "structured":
            print(json.dumps(fields))
        else:
            print("  ".join(f"{k}={v}" for k, v in fields.items()))

    def elt(self, text: str) -> PadicElement:
        return parse_element(text, self.field, self.prec)

    def config(self):
        from .harness import RunConfig

        a = self.args
        return RunConfig(p=a.p, prec=a.prec, ext=a.ext, seed=a.seed, slack=a.slack)


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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failed write of help or usage to stdout raises
    the OSError, which main reports, where argparse would swallow it."""

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared after it:
    parsing reads a parser and never changes it.  Each leaf names its
    handler as the default of ``run``."""
    common = _common_options()
    top = _Parser(prog="padic-tate", parents=[common],
                  description="p-adic arithmetic, the Tate curve, "
                              "and lattice intersection checks")
    sub = top.add_subparsers(dest="command", required=True)

    def group(name, text):
        return sub.add_parser(name, help=text).add_subparsers(
            dest=f"{name}_command", required=True)

    def leaf(group, name, run, **kw):
        par = group.add_parser(name, parents=[common], **kw)
        par.set_defaults(run=run)
        return par

    s = leaf(sub, "exp", _exp, help="p-adic exponential")
    s.add_argument("--x", required=True)

    s = leaf(sub, "log", _log, help="p-adic logarithm")
    s.add_argument("--y", required=True)

    s = leaf(sub, "rv", _rv, help="leading-term class")
    s.add_argument("--x", required=True)
    s.add_argument("--lambda", dest="lam", default="0")

    tsub = group("tate", "Tate curve operations")
    for name, run in (("invariants", _tate_invariants), ("j", _tate_j)):
        t = leaf(tsub, name, run)
        t.add_argument("--q", required=True)
    t = leaf(tsub, "map", _tate_map)
    t.add_argument("--q", required=True)
    t.add_argument("--u", required=True)
    t = leaf(tsub, "add", _tate_add)
    t.add_argument("--q", required=True)
    t.add_argument("--x1", required=True)
    t.add_argument("--y1", required=True)
    t.add_argument("--x2", required=True)
    t.add_argument("--y2", required=True)
    for name, prefixes in (("verify-hom", ("hom/",)), ("verify-ode", ("ode/", "xprime/"))):
        t = leaf(tsub, name, functools.partial(_tate_verify, prefixes))
        t.add_argument("--q", required=True)
        t.add_argument("--trials", type=int, default=20)

    s = leaf(sub, "wdiv", _wdiv, help="Weierstrass division g = q*f + r")
    s.add_argument("--g", required=True, help="series file for the dividend")
    s.add_argument("--f", required=True, help="series file for the divisor")
    s.add_argument("--active", type=int, default=None,
                   help="1-based active variable (default: the last)")
    s.add_argument("--degree-cap", type=int, default=8)

    bsub = group("balls", "ball combinatorics")
    b = leaf(bsub, "next", _balls_next)
    b.add_argument("--C", required=True, help="comma-separated element literals")
    b.add_argument("--lambda", dest="lam", default="0")
    b.add_argument("--x", required=True)
    b = leaf(bsub, "same", _balls_same)
    b.add_argument("--C", required=True)
    b.add_argument("--lambda", dest="lam", default="0")
    b.add_argument("--x", required=True)
    b.add_argument("--y", required=True)

    lsub = group("lattice", "integer matrix calculus")
    for name, run in (("smith", _lattice_smith), ("kernel", _lattice_kernel)):
        m = leaf(lsub, name, run)
        m.add_argument("--matrix", required=True, help="JSON matrix file or inline rows a,b;c,d")

    gsub = group("geom", "subgroup-coset geometry")
    g = leaf(gsub, "rotund", _geom_rotund)
    g.add_argument("--lattice", required=True, help="JSON subgroup lattice file")
    g.add_argument("--height", type=int, default=3)
    g = leaf(gsub, "plikely", _geom_plikely)
    g.add_argument("--V", required=True)
    g.add_argument("--S", required=True)
    g.add_argument("--T", action="append", default=[],
                   help="quotient lattice (repeatable; omit for T = 0)")
    g.add_argument("--n", type=int, required=True)
    g = leaf(gsub, "atypical", _geom_atypical)
    g.add_argument("--dims", required=True, help="dimX,dimV,dimW,dimZ")

    rsub = group("relations", "bounded-height relation probers")
    r = leaf(rsub, "search", _relations_search)
    r.add_argument("--z", action="append", required=True)
    r.add_argument("--height", type=int, default=10)
    r = leaf(rsub, "mult", _relations_mult)
    r.add_argument("--q", required=True)
    r.add_argument("--u", action="append", required=True)
    r.add_argument("--height", type=int, default=10)

    h = leaf(sub, "harness", _harness, help="run a seeded verification suite")
    h.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
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
        # every coefficient is known modulo pi^prec, and to no more digits
        "prec": series.coeff_prec,
        # the digits without the O-term, re-parseable by the grammar
        "terms": [{"exp": list(expo), "coeff": str(c).rsplit(" + O(", 1)[0]}
                  for expo, c in series.coeffs.items()],
    }


def _fraction_arg(text: str) -> Fraction:
    """--lambda as a Fraction, refused if its reduced numerator or denominator needs more
    than _COUNT_DIGITS digits, or its text has a longer run of digits, which int() refuses
    in words that vary with the Python version.  A decimal exponent E is applied last, as
    Fraction builds 10^E first: past |E| = _COUNT_DIGITS + len(text) any nonzero mantissa
    is there."""
    exp = re.fullmatch(r"(.*[\d.])e([-+]?\d+(?:_\d+)*)\s*", text, re.I)
    try:
        value = Fraction(exp[1] + "e0") if exp else Fraction(text)
        shift = int(exp[2]) if exp and value else 0
        if abs(shift) <= _COUNT_DIGITS + len(text):
            value *= Fraction(10) ** shift
            if max(abs(value.numerator), value.denominator) < _TOO_MANY_DIGITS:
                return value
    except ValueError:
        runs = re.findall(r"\d+", text.replace("_", ""))
        if max(map(len, runs), default=0) <= _COUNT_DIGITS:
            Fraction(text)  # an invalid text raises with its own message
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    raise ValueError(f"--lambda {text!r} needs more than {_COUNT_DIGITS} digits")


def _rows(M) -> str:
    return json.dumps([list(r) for r in M])


# Each handler prints its records and returns the exit code, or None for 0.

def _exp(args, ctx):
    ctx.emit(op="exp", x=args.x, result=str(p_exp(ctx.elt(args.x))))


def _log(args, ctx):
    ctx.emit(op="log", y=args.y, result=str(p_log(ctx.elt(args.y))))


def _rv(args, ctx):
    cls = rv_class(ctx.elt(args.x), _fraction_arg(args.lam))
    ctx.emit(op="rv", valuation=str(cls.valuation),
             digits=str(list(cls.leading_digits)), lam=str(cls.lam))


def _curve(args, ctx):
    return curve_coefficients(ctx.elt(args.q))


def _tate_invariants(args, ctx):
    curve = _curve(args, ctx)
    j = j_invariant(curve)
    ctx.emit(op="tate.invariants", a4=str(curve.a4), a6=str(curve.a6),
             discriminant=str(curve_discriminant(curve)), j=str(j),
             v_j=str(j.valuation().value))


def _tate_j(args, ctx):
    j = j_invariant(_curve(args, ctx))
    ctx.emit(op="tate.j", j=str(j), v_j=str(j.valuation().value), prec=j.abs_prec)


def _emit_point(ctx, op: str, pt: TatePoint) -> None:
    if pt.is_identity:
        ctx.emit(op=op, kind="identity")
    else:
        ctx.emit(op=op, kind="affine", x=str(pt.x), y=str(pt.y))


def _tate_map(args, ctx):
    _emit_point(ctx, "tate.map", phi(_curve(args, ctx), ctx.elt(args.u), slack=ctx.slack))


def _tate_add(args, ctx):
    curve = _curve(args, ctx)
    P = TatePoint.affine(ctx.elt(args.x1), ctx.elt(args.y1))
    Q = TatePoint.affine(ctx.elt(args.x2), ctx.elt(args.y2))
    _emit_point(ctx, "tate.add", curve_add(curve, P, Q, slack=ctx.slack))


def _tate_verify(prefixes, args, ctx):
    from .harness import tate_suite

    ctx.elt(args.q)      # a bad --q is reported before a bad configuration
    cfg = ctx.config()
    report = tate_suite(cfg, q_literal=args.q, trials=args.trials)
    shown = [rec for rec in report.records if rec.name.startswith(prefixes)]
    for rec in shown:
        ctx.emit(name=rec.name, ok=rec.ok, residual_valuation=rec.measured,
                 prec=cfg.prec)
    return 0 if all(rec.ok for rec in shown) else 1


def _wdiv(args, ctx):
    g = _load_series(args.g, ctx.field, ctx.prec, args.degree_cap)
    f = _load_series(args.f, ctx.field, ctx.prec, args.degree_cap)
    active = (args.active - 1) if args.active is not None else g.nvars - 1
    d = regular_degree(f, active)
    if d is None:
        ctx.emit(op="wdiv", ok=False, reason="divisor not regular")
        return 1
    q, r = weierstrass_divide(g, f, active)
    ctx.emit(op="wdiv", ok=True, degree=d,
             q=json.dumps(_series_record(q)), r=json.dumps(_series_record(r)))


def _centers(args, ctx):
    return [ctx.elt(c) for c in args.C.split(",")], _fraction_arg(args.lam)


def _balls_next(args, ctx):
    ball = ball_next(*_centers(args, ctx), ctx.elt(args.x))
    ctx.emit(op="balls.next", center=str(ball.center), radius=str(ball.lambda_radius))


def _balls_same(args, ctx):
    ctx.emit(op="balls.same",
             same=same_ball(*_centers(args, ctx), ctx.elt(args.x), ctx.elt(args.y)))


def _lattice_smith(args, ctx):
    M = _load_matrix(args.matrix)
    U, D, V = smith_normal_form(M)
    ctx.emit(op="lattice.smith", D=_rows(D), U=_rows(U), V=_rows(V), rank=rank(M))


def _lattice_kernel(args, ctx):
    K = kernel_lattice(_load_matrix(args.matrix))
    ctx.emit(op="lattice.kernel", basis=_rows(K), rank=rank(K))


def _geom_rotund(args, ctx):
    verdict = rotund_check(_load_lattice(args.lattice), args.height)
    ctx.emit(op="geom.rotund", refuted=verdict.refuted,
             witness=_rows(verdict.witness) if verdict.witness else None,
             height=verdict.height)
    return 1 if verdict.refuted else 0


def _geom_plikely(args, ctx):
    V = _load_matrix(args.V)
    S = _load_matrix(args.S)
    Ts = [_load_matrix(t) for t in args.T] or [()]
    verdicts = persistently_likely(V, S, Ts, args.n)
    for v in verdicts:
        ctx.emit(op="geom.plikely", index=v.index, ok=v.ok, lhs=v.lhs, rhs=v.rhs)
    return 0 if all(v.ok for v in verdicts) else 1


def _geom_atypical(args, ctx):
    dims = [int(x) for x in args.dims.split(",")]
    if len(dims) != 4:
        raise ValueError("--dims needs dimX,dimV,dimW,dimZ")
    ctx.emit(op="geom.atypical", atypical=atypical(*dims))


def _relations_search(args, ctx):
    zs = [ctx.elt(z) for z in args.z]
    found = relation_search(zs, args.height, slack=ctx.slack)
    threshold = min(z.abs_prec for z in zs) - ctx.slack
    bound = relation_false_positive_bound(len(zs), args.height, ctx.field.p,
                                          ctx.field.f, threshold)
    ctx.emit(op="relations.search", relations=_rows(found),
             count=len(found), height=args.height,
             false_positive_bound=f"{bound:.3e}",
             note="relations to precision, not exact")


def _relations_mult(args, ctx):
    found = mult_dependence_mod_kernel(ctx.elt(args.q), [ctx.elt(u) for u in args.u],
                                       args.height, slack=ctx.slack)
    ctx.emit(op="relations.mult",
             relations=json.dumps([[list(m), k] for m, k in found]),
             count=len(found), height=args.height,
             note="relations to precision, not exact")


def _harness(args, ctx):
    from .harness import run_suite

    config = ctx.config()
    failed = False
    for name in SUITE_NAMES if args.suite == "all" else [args.suite]:
        kwargs = {}
        if name == "tate":
            kwargs["q_literal"] = args.q
        if name in ("exp", "tate") and args.trials is not None:
            kwargs["trials"] = args.trials
        report = run_suite(name, config, **kwargs)
        for rec in report.records:
            ctx.emit(suite=name, name=rec.name, ok=rec.ok,
                     measured=rec.measured, threshold=rec.threshold)
        ctx.emit(suite=name, summary=True, ok=report.ok, records=len(report.records))
        failed = failed or not report.ok
    return 1 if failed else 0


def dispatch(argv) -> int:
    args = _build_parser().parse_args(argv, namespace=argparse.Namespace(**GLOBAL_DEFAULTS))
    if os.environ.get("PADIC_TATE_SEED"):
        args.seed = int(os.environ["PADIC_TATE_SEED"])
    if not 1 <= args.prec <= MAX_PREC:
        raise ValueError(f"--prec must be in [1, {MAX_PREC}], got {args.prec}")
    if args.slack < 0:
        raise ValueError(f"--slack must be >= 0, got {args.slack}")
    for name in ("trials", "active"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be >= 1, got {value}")
    return args.run(args, _Context(args)) or 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            code = dispatch(argv)
        finally:
            # a failed write surfaces here, not at interpreter exit; stdout
            # is None when the process started with it closed
            if sys.stdout is not None:
                sys.stdout.flush()
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        code = 3
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    except PadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        # _read_json reports its own OSError, so this one is a failed write
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # later writes, and the flush at exit, go nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        code = 2
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
