"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest -q perfbench

The negative controls corrupt one result per workload and require the
benchmark's checks to fail it, so a fail_ratio of 0 means something.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from padic_tate.field import PadicElement  # noqa: E402
from padic_tate.tate import TatePoint  # noqa: E402
from padic_tate.weierstrass import StrictSeries  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNTS = {"tate": 4, "hiprec": 4, "short": 8, "lattice": 6}


def tally_of(name, seed=3, corrupt=None, tracer=None):
    """Run and check requests 0..COUNTS[name]-1; ``corrupt`` = (index, fn)
    replaces that request's output by ``fn(out)`` before it is checked."""
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup()
    tally = run.Tally(wl, ctx)
    prev = None
    for i in range(COUNTS[name]):
        inp = wl.gen(ctx, seed, i, prev)
        if tracer:
            tracer.active = True
        out = wl.run(ctx, inp)
        if tracer:
            tracer.active = False
        prev = (inp, out)
        if corrupt and corrupt[0] == i:
            out = corrupt[1](out)
        tally.add(inp, out, None)
    return tally


def _plus_p_power(x: PadicElement, k: int) -> PadicElement:
    """x with one digit changed: x + p^k."""
    return x + PadicElement.from_int(x.field, x.field.p ** k, x.abs_prec)


def _tate_phi_digit(out):
    P1, P2, P12, *rest = out
    return (P1, P2, TatePoint.affine(_plus_p_power(P12.x, 5), P12.y), *rest)


def _wdiv_remainder(out):
    q, r = out
    extra = {(0,) * r.nvars: PadicElement.from_int(r.field, r.field.p ** 3, r.coeff_prec)}
    return q, r + StrictSeries.build(r.nvars, r.field, extra, r.degree_cap, r.coeff_prec)


def _cli_digit(out):
    code, text = out
    digits = [k for k, ch in enumerate(text) if ch.isdigit()]
    if not digits:
        return code, text.replace("True", "False") if "True" in text else text.replace(
            "False", "True")
    k = digits[-1]
    return code, text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]


def _snf_diagonal(out):
    U, D, V = out
    D = tuple(tuple(x + (a == b == 0) for b, x in enumerate(row)) for a, row in enumerate(D))
    return U, D, V


def _rotund_flipped(out):
    return dataclasses.replace(out, refuted=not out.refuted, witness=None)


CORRUPTIONS = {
    "tate/phi-digit": ("tate", 0, _tate_phi_digit),
    "hiprec/log-digit": ("hiprec", 1, lambda y: _plus_p_power(y, 5)),
    "short/ball-verdict": ("short", 0, lambda out: (not out[0],) + out[1:]),
    "short/cli-digit": ("short", 1, _cli_digit),
    "short/wdiv-remainder": ("short", 2, _wdiv_remainder),
    "short/planted-relation-dropped": ("short", 3, lambda out: []),
    "lattice/snf-diagonal": ("lattice", 0, _snf_diagonal),
    "lattice/vm-bound": ("lattice", 1, lambda out: (
        out[0], dataclasses.replace(out[1], bound=out[1].bound + 1))),
    # request 2 checks an n = 2 lattice, request 5 a full-rank n = 3 one
    "lattice/rotund-verdict-n2": ("lattice", 2, _rotund_flipped),
    "lattice/rotund-verdict-n3": ("lattice", 5, _rotund_flipped),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_clean_results_pass(name):
    tally = tally_of(name)
    assert tally.requests == COUNTS[name]
    assert tally.failed == 0


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_result_is_caught(case):
    name, index, corrupt = CORRUPTIONS[case]
    tally = tally_of(name, corrupt=(index, corrupt))
    assert tally.failed == 1
    assert tally.failed / tally.requests > 0


def test_rotund_reference_agrees_with_the_search():
    """The closed-form verdict the lattice check compares against matches
    rotund_check's exhaustive search on the inputs the workload draws."""
    verdicts = set()
    for seed in range(40):
        rng = workloads.prng.stream(seed, "rotund-reference", 0)
        V, height = workloads._random_subgroup(rng, 2, -2, 2), rng.randint(1, 3)
        expected = workloads._rotund_expected(V, height)
        assert workloads.pt.rotund_check(V, height).refuted == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_margin_is_reported_on_padic_workloads():
    assert tally_of("tate").margin >= 0
    assert tally_of("hiprec").margin >= 0
    assert tally_of("lattice").margin is None


def test_digest_repeats_for_a_seed():
    assert tally_of("short").digest == tally_of("short").digest
    assert tally_of("short").digest != tally_of("short", seed=4).digest


@pytest.mark.parametrize("name", ["short", "lattice"])
def test_traced_digest_equals_untraced(name):
    plain = tally_of(name).digest
    tracer = Tracer()
    tracer.install()
    try:
        traced = tally_of(name, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.digest == plain
    field_calls = sum(n for (layer, _), n in tracer.calls.items() if layer == "field")
    if name == "short":
        # cli binds p_exp, same_ball and parse_element by name; those calls count
        kinds = workloads.SHORT_KINDS
        assert tracer.calls[("cli", "main")] == sum(
            kinds[i % len(kinds)] == "cli" for i in range(COUNTS[name]))
        assert tracer.calls[("parsing", "parse_element")] > 0
        assert field_calls > 0
    else:
        assert field_calls == 0
        assert tracer.calls[("lattice", "smith_normal_form")] > 0


def test_wrappers_are_removed():
    import padic_tate
    import padic_tate.cli

    before = (padic_tate.p_exp, padic_tate.cli.p_exp, PadicElement.__add__)
    tracer = Tracer()
    tracer.install()
    assert padic_tate.cli.p_exp is not before[1]
    tracer.uninstall()
    assert (padic_tate.p_exp, padic_tate.cli.p_exp, PadicElement.__add__) == before


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run fails and prints
    no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
