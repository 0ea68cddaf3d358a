import argparse
import contextlib
import errno
import hashlib
import importlib.util
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from padic_tate import cli, errors, harness
from padic_tate.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh_env():
    """The environment of a child interpreter that imports this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestDispatch:
    def test_tate_j_worked_example(self, capsys):
        code, out = run_cli(capsys, "tate", "j", "--p", "5", "--q", "5^2",
                            "--prec", "40", "--format", "structured")
        assert code == 0
        rec = records(out)[0]
        assert rec["v_j"] == "-2"

    def test_exp_trivial(self, capsys):
        code, out = run_cli(capsys, "exp", "--p", "5", "--x", "0", "--prec", "10")
        assert code == 0
        assert "1 + O(pi^10)" in out

    def test_global_flags_before_subcommand(self, capsys):
        code, out = run_cli(capsys, "--p", "5", "--prec", "10", "exp", "--x", "0")
        assert code == 0
        assert "1 + O(pi^10)" in out

    def test_verify_hom_deterministic(self, capsys):
        args = ("tate", "verify-hom", "--p", "5", "--q", "5^2", "--trials", "4",
                "--seed", "1", "--prec", "40", "--format", "structured")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert sum(1 for r in records(out1) if r["name"].startswith("hom/")) == 4

    def test_verify_prints_a_bound_with_its_sign(self, capsys):
        # every hom/ agreement here is known only as a lower bound
        code, out = run_cli(capsys, "tate", "verify-hom", "--q", "5^2", "--trials", "2",
                            "--prec", "30", "--format", "structured")
        assert code == 0
        assert [r["residual_valuation"] for r in records(out)] == [">=28", ">=26"]

    def test_seed_env_override(self, capsys, monkeypatch):
        base = ("tate", "verify-ode", "--p", "5", "--q", "5^2", "--trials", "2",
                "--prec", "40", "--format", "structured")
        _, out_seed3 = run_cli(capsys, *base, "--seed", "3")
        monkeypatch.setenv("PADIC_TATE_SEED", "3")
        _, out_env = run_cli(capsys, *base, "--seed", "999")
        assert out_env == out_seed3


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["exp", "--p", "5", "--x", "not a literal"]) == 2

    def test_unknown_flag_is_2(self, capsys):
        assert main(["exp", "--nope", "1"]) == 2

    def test_precision_error_is_3(self, capsys):
        # rv needs 11 unit digits but only 5 are known
        assert main(["rv", "--p", "5", "--x", "5", "--lambda", "10",
                     "--prec", "6"]) == 3
        # imprecise zero has no leading-term class
        assert main(["rv", "--p", "5", "--x", "0", "--prec", "6"]) == 3

    @pytest.mark.parametrize("error", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.PadicError)],
        ids=lambda cls: cls.__name__)
    def test_error_class_decides_the_code(self, capsys, monkeypatch, error):
        precision = {"PrecisionError", "InsufficientPrecision", "PrecisionCollapse",
                     "DivisionByImpreciseZero", "ImpreciseDistance", "ImpreciseValuation",
                     "AmbiguousAtPrecision", "ZeroElement"}
        usage = {"UsageError", "ParseError", "DenominatorNotInvertible"}

        def dispatch(argv):
            raise error("boom")

        # dispatch, not a handler: _build_parser caches the handlers
        monkeypatch.setattr(cli, "dispatch", dispatch)
        if error.__name__ in precision:
            code, prefix = 3, "precision error: "
        elif error.__name__ in usage:
            code, prefix = 2, "usage error: "
        else:
            code, prefix = 2, "error: "
        assert main([]) == code
        assert capsys.readouterr().err == prefix + "boom\n"

    def test_domain_error_is_2(self, capsys):
        assert main(["log", "--p", "5", "--y", "2", "--prec", "6"]) == 2

    @pytest.mark.parametrize("literal", ["0^-1", "0^-3 + 1", "2*0^-1", "1/0"])
    def test_zero_to_a_negative_power_is_2(self, capsys, literal):
        # an exact zero has no inverse at any precision: a usage error, not a
        # precision error
        assert main(["exp", "--x", literal]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_verification_failure_is_1(self, tmp_path, capsys):
        # a lattice that is definitely not persistently likely
        e1 = tmp_path / "e1.json"
        e1.write_text(json.dumps({"rows": 2, "cols": 1, "entries": [[1], [0]]}))
        code = main(["geom", "plikely", "--V", str(e1), "--S", str(e1),
                     "--T", str(e1), "--n", "2"])
        assert code == 1

    @pytest.mark.parametrize("command, content", [
        (["geom", "rotund", "--lattice"], None),
        (["geom", "rotund", "--lattice"], {"mult": [[1], [0]]}),
        (["wdiv", "--g"], None),
        (["wdiv", "--g"], {"nvars": 1}),
        (["lattice", "smith", "--matrix"], {"entries": [1, 2]}),
        (["lattice", "smith", "--matrix"], [[1, 2]]),
        (["lattice", "smith", "--matrix"], {"entries": [[1.5]]}),
        (["geom", "rotund", "--lattice"], {"n": 2, "mult": [1, 2]}),
        (["geom", "rotund", "--lattice"], {"n": 1.7, "mult": [[1]]}),
        (["geom", "rotund", "--lattice"], {"n": -1}),
        (["wdiv", "--g"], {"nvars": 1, "terms": 5}),
        (["wdiv", "--g"], {"nvars": 1, "terms": [{"exp": 1, "coeff": "1"}]}),
        (["wdiv", "--g"], {"nvars": 1, "terms": [{"exp": [1], "coeff": 5}]}),
        (["wdiv", "--g"], {"nvars": 1.5, "terms": []}),
    ], ids=["lattice-missing-file", "lattice-missing-key",
            "g-missing-file", "g-missing-key", "matrix-flat-entries",
            "matrix-top-level-array", "matrix-float-entry", "lattice-flat-part",
            "lattice-fractional-n", "lattice-negative-n", "g-terms-not-list",
            "g-exp-not-list", "g-coeff-not-string", "g-fractional-nvars"])
    def test_input_file_error_is_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(json.dumps(content))
        argv = command + [str(path)]
        if command[0] == "wdiv":
            argv += ["--f", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["rv", "--x", "5", "--lambda", "1/0"],
        ["balls", "same", "--C", "0", "--x", "5", "--y", "30", "--lambda", "1/0"],
        ["geom", "rotund", "--lattice", "LATTICE", "--height", "-1"],
        ["relations", "search", "--z", "5", "--height", "-1"],
        ["relations", "mult", "--q", "25", "--u", "7", "--height", "-2"],
        ["harness", "--suite", "exp", "--trials", "-1"],
        ["harness", "--suite", "exp", "--trials", "0"],
        ["tate", "verify-hom", "--q", "5^2", "--trials", "-2"],
        ["wdiv", "--g", "SERIES", "--f", "SERIES", "--active", "0"],
        ["wdiv", "--g", "SERIES", "--f", "SERIES", "--degree-cap", "100000000", "--prec", "5"],
        ["wdiv", "--g", "HUGE", "--f", "SERIES", "--degree-cap", "100000000", "--prec", "5"],
        ["wdiv", "--g", "HUGE", "--f", "SERIES", "--prec", "5"],
        ["rv", "--x", "1+pi", "--lambda", "0", "--ext", "eisenstein:e=65,c=1", "--prec", "5"],
        ["exp", "--x", "5", "--ext", "eisenstein:e=2,C=3"],
        ["exp", "--x", "5", "--ext", "eisenstein:e=2,e=3"],
        ["exp", "--x", "5", "--ext", "unramified:f=2,poly=1,0,1"],
        # refused before any work, which grows faster than the square of --prec
        ["exp", "--x", "5", "--prec", "4097"],
        ["--prec", "100000", "tate", "j", "--q", "5^2"],
        ["harness", "--suite", "all", "--prec", "100000"],
        # no digit known, or a budget that widens the thresholds
        ["--prec", "-5", "relations", "search", "--z", "5", "--z", "7", "--height", "1"],
        ["--prec", "0", "exp", "--x", "5"],
        ["--slack", "-3", "harness", "--suite", "exp", "--trials", "1"],
    ], ids=["rv-lambda", "balls-lambda", "rotund-height", "search-height", "mult-height",
            "harness-trials-negative", "harness-trials-zero", "verify-hom-trials",
            "wdiv-active-zero", "wdiv-cap-flag", "wdiv-cap-flag-and-file", "wdiv-cap-file",
            "eisenstein-degree", "ext-unknown-key", "ext-repeated-key",
            "ext-poly-after-f", "exp-prec-cap", "tate-prec-cap", "harness-prec-cap",
            "search-prec-negative", "exp-prec-zero", "harness-slack-negative"])
    def test_bad_argument_is_2(self, tmp_path, capsys, argv):
        files = {"LATTICE": {"n": 2, "mult": [[1], [0]]},
                 "SERIES": {"nvars": 1, "terms": [{"exp": [1], "coeff": "1"}]},
                 # a division would walk all 10^8 degrees: the cap is refused
                 "HUGE": {"nvars": 1, "degree_cap": 10 ** 8,
                          "terms": [{"exp": [10 ** 8], "coeff": "1"}]}}
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["rv", "--x", "5"],
        ["balls", "same", "--C", "0", "--x", "5", "--y", "7"],
        ["balls", "next", "--C", "0", "--x", "5"],
    ], ids=["rv", "balls-same", "balls-next"])
    def test_lambda_beyond_the_digit_limit_is_2(self, capsys, command):
        # 10^5000 and 10^-5000 need 5001 digits; 1e100000000 is refused from
        # its text, before Fraction builds 10^100000000
        for lam in ("1e5000", "1e-5000", "1e100000000"):
            start = time.perf_counter()
            assert main(command + ["--lambda", lam]) == 2
            assert time.perf_counter() - start < 1
            assert capsys.readouterr().err == \
                f"usage error: --lambda '{lam}' needs more than 4300 digits\n"
        # 10^4299 has 4300 digits, and a zero mantissa is zero at any exponent
        for lam in ("1e4299", "0e5000", "0e100000000"):
            assert main(command + ["--lambda", lam]) != 2
            capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["rv", "--x", "5"],
        ["balls", "same", "--C", "0", "--x", "5", "--y", "7"],
        ["balls", "next", "--C", "0", "--x", "5"],
    ], ids=["rv", "balls-same", "balls-next"])
    def test_digit_run_beyond_the_limit_names_the_flag(self, capsys, command):
        # int() refuses these runs in words that vary with the Python version
        for lam in ("1" * 5000, "1." + "0" * 4301, "1_" * 4300 + "1", "2/" + "3" * 4301,
                    "1e" + "1" * 5000):
            assert main(command + ["--lambda", lam]) == 2
            assert capsys.readouterr().err == \
                f"usage error: --lambda '{lam}' needs more than 4300 digits\n"
        # 1.000...0 is 1 however many zeros it has; only the run's length is refused
        assert main(command + ["--lambda", "1." + "0" * 4300]) != 2
        capsys.readouterr()
        for lam in ("1 e5", "x" + "1" * 4300):
            assert main(command + ["--lambda", lam]) == 2
            assert capsys.readouterr().err == \
                f"usage error: Invalid literal for Fraction: '{lam}'\n"

    def test_literal_integer_beyond_the_digit_limit_is_2(self, capsys):
        # int() refuses these in words that vary with the Python version
        for x in ("5" + "0" * 4300, "pi^-" + "1" * 4301, "1 + O(pi^" + "1" * 4301 + ")"):
            assert main(["exp", "--x", x]) == 2
            assert "more than 4300 digits" in capsys.readouterr().err
        assert main(["exp", "--x", "5" + "0" * 4299, "--prec", "5"]) == 0
        assert capsys.readouterr().out.endswith("result=1 + O(pi^5)\n")

    def test_prec_cap_is_inclusive(self, capsys):
        assert main(["exp", "--x", "0", "--prec", str(cli.MAX_PREC)]) == 0
        assert capsys.readouterr().out == f"op=exp  x=0  result=1 + O(pi^{cli.MAX_PREC})\n"

    @pytest.mark.parametrize("argv, message", [
        (["exp", "--x", "5 5"], "usage error: trailing input ['5']"),
        (["exp", "--x", "(5 5)"], "usage error: expected ')', found '5'"),
        (["exp", "--x", "5^pi"], "usage error: expected an integer, found 'pi'"),
        (["lattice", "smith", "--matrix", "1,2;3"], "usage error: ragged matrix"),
        (["geom", "rotund", "--lattice", "LATTICE"],
         "error: lattice rows must equal the ambient n"),
        (["geom", "plikely", "--V", "1;0", "--S", "1;0", "--n", "3"],
         "error: lattice rows must equal the ambient n"),
        (["wdiv", "--g", "SERIES", "--f", "SERIES", "--active", "5"],
         "usage error: active variable out of range"),
        (["wdiv", "--g", "LONG", "--f", "SERIES"], "usage error: bad exponent tuple (1, 0)"),
        (["wdiv", "--g", "NEGATIVE", "--f", "SERIES"], "usage error: bad exponent tuple (-1,)"),
        (["exp", "--x", "5", "--ext", "eisenstein:e=0"],
         "usage error: eisenstein extension needs a ramification index e >= 1"),
        (["exp", "--x", "5", "--ext", "unramified:f=1"],
         "usage error: unramified extension needs f >= 2 or an explicit polynomial"),
        (["exp", "--x", "5", "--ext", "unramified:f=9"],
         "usage error: unramified extensions support degree <= 8"),
        (["exp", "--x", "5", "--ext", "unramified:poly=1,1"],
         "error: defining polynomial must be monic of degree >= 2"),
        (["relations", "mult", "--q", "1", "--u", "7"],
         "usage error: q needs positive exact valuation"),
        (["relations", "mult", "--q", "0", "--u", "7"],
         "usage error: q needs positive exact valuation"),
        (["relations", "mult", "--q", "25", "--u", "0"],
         "usage error: every u_i needs a known leading digit"),
        (["exp", "--p", "2", "--x", "O(pi^1)"],
         "error: argument is an imprecise zero whose bound does not clear 1/(p-1)"),
        (["wdiv", "--g", "SERIES2", "--f", "SERIES3"], "usage error: series mismatch"),
    ], ids=["exp-trailing", "exp-unclosed", "exp-power-not-int", "smith-ragged",
            "rotund-rows", "plikely-rows", "wdiv-active-high", "wdiv-exp-length",
            "wdiv-exp-negative", "eisenstein-e0", "unramified-f1", "unramified-f9",
            "unramified-poly-linear", "mult-q-unit", "mult-q-zero", "mult-u-zero",
            "exp-imprecise-zero", "wdiv-nvars"])
    def test_refusal_is_one_line(self, tmp_path, capsys, argv, message):
        files = {"LATTICE": {"n": 3, "mult": [[1], [2]]},
                 "SERIES": {"nvars": 1, "terms": [{"exp": [1], "coeff": "1"}]},
                 "LONG": {"nvars": 1, "terms": [{"exp": [1, 0], "coeff": "1"}]},
                 "NEGATIVE": {"nvars": 1, "terms": [{"exp": [-1], "coeff": "1"}]},
                 # f is regular in the active variable, the last of g's two
                 "SERIES2": {"nvars": 2, "terms": [{"exp": [0, 1], "coeff": "1"}]},
                 "SERIES3": {"nvars": 3, "terms": [{"exp": [0, 1, 0], "coeff": "1"}]}}
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
        assert capsys.readouterr() == ("", message + "\n")

    # the eisenstein rows sit each valuation comparison at its exact boundary
    @pytest.mark.parametrize("argv, code, message", [
        (["exp", "--x", "1"], 2, "error: v(x) = 0 is not > 1/(p-1) = 1/4"),
        (["exp", "--x", "pi", "--ext", "eisenstein:e=4,c=-1"], 2,
         "error: v(x) = 1/4 is not > 1/(p-1) = 1/4"),
        (["log", "--y", "1+pi", "--ext", "eisenstein:e=4,c=-1"], 2,
         "error: v(y-1) = 1/4 is not > 1/(p-1) = 1/4"),
        (["balls", "same", "--C", "0", "--x", "pi^3", "--y", "pi^3+O(pi^4)",
          "--lambda", "1/2", "--ext", "eisenstein:e=2,c=1"], 3,
         "precision error: v(x-y) >= 2 cannot be compared with 2"),
        (["balls", "next", "--C", "pi", "--x", "pi+O(pi^3)", "--lambda", "1/2",
          "--ext", "eisenstein:e=2,c=1"], 2,
         "error: point is indistinguishable from a member of C (v >= 3/2)"),
        (["rv", "--x", "pi", "--lambda", "1/3", "--ext", "eisenstein:e=2,c=1"], 2,
         "usage error: lambda 1/3 is not in the value group (1/2)Z"),
        (["rv", "--x", "5", "--lambda", "-1"], 2, "usage error: lambda must be >= 0"),
        (["tate", "add", "--q", "5^2", "--x1", "1", "--y1", "1", "--x2", "2", "--y2", "3"], 2,
         "error: curve equation residual has valuation 0"),
        (["exp", "--x", "5", "--ext", "eisenstein:e=2,c=x"], 2,
         "usage error: c: 'x' is not an integer in 'eisenstein:e=2,c=x'"),
        (["exp", "--x", "5", "--ext", "eisenstein:e=2,c"], 2,
         "usage error: c: '' is not an integer in 'eisenstein:e=2,c'"),
        (["exp", "--x", "5", "--ext", "unramified:poly=1,a,1"], 2,
         "usage error: poly: 'a' is not an integer in 'unramified:poly=1,a,1'"),
    ], ids=["exp-domain", "exp-boundary", "log-boundary", "same-imprecise",
            "next-member-of-C", "rv-value-group", "rv-negative", "add-off-curve",
            "ext-value-not-int", "ext-value-missing", "ext-poly-not-int"])
    def test_error_message(self, capsys, argv, code, message):
        assert main(argv) == code
        assert capsys.readouterr().err == message + "\n"


class TestFileFormats:
    def test_zero_dimensional_lattice_verified(self, tmp_path, capsys):
        path = tmp_path / "V.json"
        path.write_text(json.dumps({"n": 0}))
        code, out = run_cli(capsys, "geom", "rotund", "--lattice", str(path),
                            "--height", "2", "--format", "structured")
        assert code == 0 and records(out)[0]["refuted"] is False

    def test_matrix_file_and_inline_agree(self, tmp_path, capsys):
        mat = tmp_path / "m.json"
        mat.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[2, 4], [6, 8]]}))
        _, out_file = run_cli(capsys, "lattice", "smith", "--matrix", str(mat),
                              "--format", "structured")
        _, out_inline = run_cli(capsys, "lattice", "smith", "--matrix", "2,4;6,8",
                                "--format", "structured")
        assert out_file == out_inline
        assert json.loads(records(out_file)[0]["D"]) == [[2, 0], [0, 4]]

    def test_wdiv_round_trip(self, tmp_path, capsys):
        g = {"nvars": 2, "degree_cap": 8, "terms": [{"exp": [0, 4], "coeff": "1"}]}
        f = {"nvars": 2, "degree_cap": 8,
             "terms": [{"exp": [0, 2], "coeff": "1"}, {"exp": [1, 0], "coeff": "5"}]}
        gp, fp = tmp_path / "g.json", tmp_path / "f.json"
        gp.write_text(json.dumps(g))
        fp.write_text(json.dumps(f))
        code, out = run_cli(capsys, "wdiv", "--g", str(gp), "--f", str(fp),
                            "--prec", "12", "--format", "structured")
        assert code == 0
        rec = records(out)[0]
        r_terms = json.loads(rec["r"])["terms"]
        assert r_terms == [{"exp": [2, 0], "coeff": "pi^2"}]
        # emitted coefficients re-parse under the element grammar
        q_terms = json.loads(rec["q"])["terms"]
        from padic_tate.field import make_field
        from padic_tate.parsing import parse_element
        field = make_field(5)
        for term in q_terms:
            parse_element(term["coeff"], field, 12)

    def test_wdiv_record_states_its_precision(self, tmp_path, capsys):
        # O(pi^3) + x divided by x + 1: q and r are known only mod pi^3
        g = {"nvars": 1, "terms": [{"exp": [0], "coeff": "O(pi^3)"},
                                   {"exp": [1], "coeff": "1"}]}
        f = {"nvars": 1, "terms": [{"exp": [0], "coeff": "1"}, {"exp": [1], "coeff": "1"}]}
        gp, fp = tmp_path / "g.json", tmp_path / "f.json"
        gp.write_text(json.dumps(g))
        fp.write_text(json.dumps(f))
        code, out = run_cli(capsys, "wdiv", "--g", str(gp), "--f", str(fp),
                            "--prec", "20", "--format", "structured")
        assert code == 0
        rec = records(out)[0]
        q, r = json.loads(rec["q"]), json.loads(rec["r"])
        assert q == {"nvars": 1, "degree_cap": 8, "prec": 3,
                     "terms": [{"exp": [0], "coeff": "1"}]}
        assert r == {"nvars": 1, "degree_cap": 8, "prec": 3,
                     "terms": [{"exp": [0], "coeff": "4 + 4*pi + 4*pi^2"}]}
        # the record reads back as a series file; "prec" is not an input key
        rp = tmp_path / "r.json"
        rp.write_text(rec["r"])
        code, out = run_cli(capsys, "wdiv", "--g", str(rp), "--f", str(fp),
                            "--prec", "20", "--format", "structured")
        assert code == 0
        assert json.loads(records(out)[0]["r"])["prec"] == 20

    def test_balls_and_rv(self, capsys):
        code, out = run_cli(capsys, "balls", "same", "--C", "0", "--lambda", "0",
                            "--x", "5", "--y", "30", "--format", "structured")
        assert code == 0 and records(out)[0]["same"] is True
        code, out = run_cli(capsys, "rv", "--x", "5", "--lambda", "0",
                            "--prec", "10", "--format", "structured")
        assert code == 0 and records(out)[0]["valuation"] == "1"

    def test_relations_cli(self, capsys):
        code, out = run_cli(capsys, "relations", "search", "--z", "5", "--z", "2*5",
                            "--height", "3", "--prec", "50", "--format", "structured")
        assert code == 0
        rec = records(out)[0]
        assert [2, -1] in json.loads(rec["relations"])
        assert "false_positive_bound" in rec

    def test_relations_false_positive_bound_past_the_float_range(self, capsys):
        # a threshold 498 digits below zero puts 5^498 past the float range
        for slack, bound in (("400", "1.394e+279"), ("500", "inf")):
            code, out = run_cli(capsys, "relations", "search", "--z", "1+O(pi^2)",
                                "--z", "5", "--height", "1", "--slack", slack,
                                "--prec", "1000", "--format", "structured")
            assert code == 0
            assert records(out)[0]["false_positive_bound"] == bound


class TestHarnessCommand:
    def test_lattice_suite_passes(self, capsys):
        code, out = run_cli(capsys, "harness", "--suite", "lattice",
                            "--format", "structured")
        assert code == 0
        recs = records(out)
        assert recs[-1]["summary"] is True and recs[-1]["ok"] is True

    def test_determinism_across_runs(self, capsys):
        args = ("harness", "--suite", "balls", "--seed", "5", "--format", "structured")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2
        assert hashlib.sha256(out1.encode()).hexdigest() == (
            "2b6d06e568e70e0af79905a5a250e686aedcc8b221a55167f2d18f426a9ccac8")

    # SHA-256 of each report at seed 0; a change that alters a report on
    # purpose records the new digest here
    @pytest.mark.parametrize("args, digest", [
        (("tate",), "e300a5ca96eba330f0e8711e70d8b0887cd95c2c8fb888c74b946d16a88e5e56"),
        (("exp",), "2d2e1e50d2afcd9a0ce151bbfd65259c7e21ec3d93c0026bbd097d30e24bdd5b"),
        (("weierstrass",), "8e1e120aded9b4d85dedb853d00543dde1f99d33dd7e92ed94a239a948d9ee37"),
        (("exp", "--p", "5", "--ext", "eisenstein:e=4,c=-1"),
         "4415a9e34cdeae0197d6c5c2f6129e9d414a52c610ede027ad452f48a3e672ae"),
        (("tate", "--p", "3", "--ext", "unramified:f=2"),
         "1bbe8ad22fd9531fa64961407af20f8b0e6f8f5af2f6e567b7c0af2da648be60"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_report_digest(self, capsys, args, digest):
        suite, *options = args
        _, out = run_cli(capsys, "harness", "--suite", suite, "--seed", "0",
                         "--format", "structured", *options)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_seed_env_overrides_the_harness_seed(self, capsys, monkeypatch):
        # the weierstrass report draws its instances from the seed
        base = ("harness", "--suite", "weierstrass", "--format", "structured")
        _, out_seed0 = run_cli(capsys, *base, "--seed", "0")
        _, out_seed3 = run_cli(capsys, *base, "--seed", "3")
        monkeypatch.setenv("PADIC_TATE_SEED", "3")
        _, out_env = run_cli(capsys, *base, "--seed", "0")
        assert out_env == out_seed3 != out_seed0

    def test_non_integer_seed_env_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PADIC_TATE_SEED", "three")
        assert main(["harness", "--suite", "weierstrass", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "three" in captured.err

    # Over a residue field of 2 elements at v(q) = 1/e, every sample is a
    # unit = 1 mod pi one digit off the kernel, so the product of any two is
    # two digits off it and no pair can be drawn: the tate suite refuses
    # before it draws.  With q of larger valuation, or a larger residue
    # field, pairs are found in a few tries
    @pytest.mark.parametrize("argv", [
        ("tate", "verify-hom", "--p", "2", "--q", "2"),
        ("tate", "verify-ode", "--p", "2", "--q", "2^3+2"),
        ("harness", "--suite", "tate", "--p", "2", "--ext", "eisenstein:e=2,c=1", "--q", "pi"),
    ], ids=" ".join)
    def test_no_sample_pair_is_refused(self, capsys, monkeypatch, argv):
        def no_draw(*args):
            raise AssertionError("a sample was drawn")
        monkeypatch.setattr(harness, "_sample_fundamental", no_draw)
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --q of valuation ") and "residue field" in captured.err

    def test_all_suites_stop_at_the_refusal(self, capsys):
        code, out = run_cli(capsys, "harness", "--p", "2", "--q", "2", "--trials", "1",
                            "--format", "structured")
        suites = [rec["suite"] for rec in records(out)]
        assert code == 2 and suites and "tate" not in suites and "weierstrass" not in suites

    @pytest.mark.parametrize("options", [
        ("--p", "2", "--q", "4"), ("--p", "2", "--ext", "unramified:f=2", "--q", "2"),
        ("--p", "3", "--q", "3"), ("--p", "3", "--ext", "unramified:f=2", "--q", "3"),
        ("--p", "5", "--q", "5"), ("--p", "2", "--ext", "eisenstein:e=2,c=1", "--q", "pi^2"),
    ], ids=" ".join)
    def test_neighbours_still_run(self, capsys, options):
        code, out = run_cli(capsys, "tate", "verify-hom", *options, "--trials", "2",
                            "--format", "structured")
        assert code == 0 and [rec["name"] for rec in records(out)] == ["hom/0", "hom/1"]


class TestPointRoundTrip:
    def test_map_output_feeds_add(self, capsys):
        # phi(7) + phi(1/7) must be the identity; coordinates are pasted
        # back from the map output verbatim
        _, out7 = run_cli(capsys, "tate", "map", "--q", "5^2", "--u", "7",
                          "--format", "structured")
        _, out_inv = run_cli(capsys, "tate", "map", "--q", "5^2", "--u", "1/7",
                             "--format", "structured")
        p7, pinv = records(out7)[0], records(out_inv)[0]
        code, out = run_cli(capsys, "tate", "add", "--q", "5^2",
                            "--x1", p7["x"], "--y1", p7["y"],
                            "--x2", pinv["x"], "--y2", pinv["y"],
                            "--format", "structured")
        assert code == 0
        assert records(out)[0]["kind"] == "identity"


# Input files named by "@name" in the argv lists below; the outputs of the
# calls that read them do not contain the path.
GOLDEN_FILES = {
    "@V": {"n": 2, "mult": [[1], [0]], "ell": [[1], [0]]},
    # both parts of full rank, so no candidate matrix refutes
    "@R3": {"n": 3, "mult": [[1, 2, 0], [0, 1, -1], [2, 0, 1]],
            "ell": [[2, 1, 1], [1, -1, 0], [0, 1, 2]]},
    # both parts kill only the multiples of (1, 5, 7), of height 7
    "@K157": {"n": 3, "mult": [[5, 7], [-1, 0], [0, -1]], "ell": [[5, 7], [-1, 0], [0, -1]]},
    # the first witness at height 1 pads two nonzero rows with one zero row
    "@W2": {"n": 3, "mult": [[2], [-2], [0]], "ell": [[1], [1], [1]]},
    # the joint kernel is spanned by (3, -7, 3), and no plane of rows of
    # height 1 is a witness, so the first one at height 1 has three rows
    "@W3": {"n": 3, "mult": [[2], [3], [5]], "ell": [[5], [3], [2]]},
    "@G": {"nvars": 2, "degree_cap": 8, "terms": [{"exp": [0, 4], "coeff": "1"}]},
    "@F": {"nvars": 2, "degree_cap": 8,
           "terms": [{"exp": [0, 2], "coeff": "1"}, {"exp": [1, 0], "coeff": "5"}]},
    "@N": {"nvars": 2, "degree_cap": 8, "terms": [{"exp": [0, 1], "coeff": "5"}]},
    "@G3": {"nvars": 3, "degree_cap": 8,
            "terms": [{"exp": [0, 0, 4], "coeff": "1"}, {"exp": [1, 1, 0], "coeff": "7"},
                      {"exp": [0, 1, 2], "coeff": "-3"}, {"exp": [0, 0, 0], "coeff": "2"}]},
    # x3^2 + companions plus a perturbation eps of positive Gauss valuation
    "@FE": {"nvars": 3, "degree_cap": 8,
            "terms": [{"exp": [0, 0, 2], "coeff": "1"}, {"exp": [0, 0, 1], "coeff": "3"},
                      {"exp": [0, 0, 0], "coeff": "1+pi"}, {"exp": [1, 0, 1], "coeff": "pi^3"},
                      {"exp": [0, 1, 0], "coeff": "2*pi^5"}]},
    "@FU": {"nvars": 3, "degree_cap": 8,
            "terms": [{"exp": [0, 0, 2], "coeff": "1"}, {"exp": [0, 0, 1], "coeff": "g"},
                      {"exp": [0, 0, 0], "coeff": "1+g"}, {"exp": [1, 0, 1], "coeff": "5*g"},
                      {"exp": [0, 1, 0], "coeff": "2*5^2"}]},
}

_P7_X = ("2 + 2*pi + pi^2 + pi^4 + 4*pi^5 + 2*pi^7 + pi^8 + 2*pi^9 + 4*pi^10 + pi^11"
         " + 4*pi^12 + pi^13 + 4*pi^14 + 3*pi^16 + 4*pi^17 + pi^19 + O(pi^20)")
_P7_Y = ("1 + 2*pi + pi^2 + 3*pi^3 + 3*pi^4 + 4*pi^5 + pi^6 + pi^8 + 4*pi^9 + 2*pi^12"
         " + pi^13 + 3*pi^14 + pi^15 + 2*pi^16 + 2*pi^17 + 2*pi^19 + O(pi^20)")

# SHA-256 of (exit code, stdout, stderr) for each argv, recorded before the
# parser was shared between calls.  Help and usage text is argparse's
# rendering at 80 columns, which can change between Python minor versions;
# these digests were taken with CPython 3.11.
GOLDEN = [
    # --help of every parser
    (["--help"], "74828f3ef4a071cc32348e895ebe4c5a5a1f704a2f04e75412d823f768523cd0"),
    (["exp", "--help"], "31061fa6a00e9addc7539283caffec889762a6949a851816b7641d3ad28e2fc8"),
    (["log", "--help"], "1bd64b81d6366531011572e412dc7ff575c0eda1ee45d9b0caa0aca0219daea7"),
    (["rv", "--help"], "4b7a60bb51e09ac479fcdbc0bf99ec41f6f729d7b1417f733faea9e876a0e549"),
    (["tate", "--help"], "32584077ad78911deecff41e7c169351a0bf5a5694480e774f4e32b812658e92"),
    (["tate", "invariants", "--help"], "f9c6f114e41fccac8659d5276403dbaf1f44cfee380248823145997a50d9aede"),
    (["tate", "j", "--help"], "a8aac4128c28ed1e0237f89ee14a66603cdab998fd7fdc467f70b18a32a7743e"),
    (["tate", "map", "--help"], "443eea3f2c92332c9735f0419a7d437bf37292b665b37c8762e4a6594b07c386"),
    (["tate", "add", "--help"], "98dd1381fdf0f964210aa08c70304722eea6cba5023655f259e2e6092f1aa7e5"),
    (["tate", "verify-hom", "--help"], "84f082aefde9fc3cfbacf6172f93838432582c1376e20491c28bf7fc24dd019a"),
    (["tate", "verify-ode", "--help"], "eacb411c2d8fcad123219a2e110d05b468a1ececc4d03ac93c333d324f25f798"),
    (["wdiv", "--help"], "92cf00745f12df8a5bcadfd6c2695faffdaf7733ad05ed18767f1782968954a9"),
    (["balls", "--help"], "caf6b8ba732985f011ce012c5af26833aa5182ac715b0be41f28cd1087fe97c3"),
    (["balls", "next", "--help"], "9c779a0bfea614974138c934cc23468f87b1fd0bb537d6262f36f01441616fc8"),
    (["balls", "same", "--help"], "68ae6b638ebed9457303ec260d696bad8922a3ee9fd6ac81f1014b1549878dc2"),
    (["lattice", "--help"], "276af2216dca74785d0758eced27b1d1c4f5c66644e38a59d6b6fbee54fc3001"),
    (["lattice", "smith", "--help"], "61a0626ee45c7b5087b4cbab4ce4518797d4e2a5ab3087744ba97f5d8a0c61d0"),
    (["lattice", "kernel", "--help"], "847ae1a2ad8049280fb8c0963547b9e5c5b3e2161ac953da6ac202a9123526ea"),
    (["geom", "--help"], "a0df097255ea1550e1657dc9cc30e5789a1dfa733f721f60de3cd65eb953ba3b"),
    (["geom", "rotund", "--help"], "144c2ad45c9a539c56aa8f5ab8683a71d93c7bc632f184c2274f54c1085974ab"),
    (["geom", "plikely", "--help"], "345192d513348ffb0d0a3c17221872d134d9791dfc7675a675f129d22bc873fb"),
    (["geom", "atypical", "--help"], "a3bcd1b922295e1fb7e0db2042d9dd646da4ac8492b57093437c0a48e7c816f5"),
    (["relations", "--help"], "0c85aee7127c5151976ca26a3d2ddc05f913bf34fb81d5e9947fe4821b631a9f"),
    (["relations", "search", "--help"], "1ce3cea7c0bbb0351f241f911ccac74675f7ba2a3ec72d5ad96d81586af9aa48"),
    (["relations", "mult", "--help"], "ffedf8432c6d4d5a1904f68f75dde86b9b26bc7276fe76cb0b7b8b88de4b650d"),
    (["harness", "--help"], "c42fcd41c1b4f56d57f9456d270b9ab2da7e8cb36d70a1fae49afd1f3c37e550"),
    # usage errors
    ([], "7d87180784a0ac04ac3dd0a8e73faddbc7b527b2a0e48ccefe9f96a9c08e6db8"),
    (["exp"], "153dfc14bb60c94639e0ce4bbea97c33d1eb2cd375fa882606bed5aab70e6d25"),
    (["tate", "map", "--q", "5^2"], "07250886d587b9f1ed8dd8ad2d5e8bacabfdb3d030ab6649a5ad3a6444ba74c5"),
    (["tate"], "c9d2d06c1fe2dc2ec0bb5f378adaa34d88d7aa69ce0d0d3c76c7e7c40ac877bb"),
    (["frobnicate"], "9c6013a3925046b603258f727210608c7ae8d8524b72024d339ab7c1d8df0769"),
    (["exp", "--x", "5", "--format", "xml"], "2a909ae7935f787797cd5fc06aac63b356a8f17fbc398a968531670b06537571"),
    (["harness", "--suite", "nope"], "fc60d17214ec1a4517d5f05678eff5ae76a3a53aa79c143fa40c5c90d4e47fc0"),
    (["exp", "--x", "5", "--nope", "1"], "afa23befac7c675aff4acba871b1cdce830bd654c7a0795a9dc9309512e25e60"),
    (["exp", "--x", "5", "--prec", "ten"], "937090644b4e5c8f25ce6e55d94adb8503dfbdbf7aec40321bf6623a29b24a30"),
    # errors raised by the library: domain, then precision
    (["log", "--y", "2", "--prec", "6"], "92482a0da0baa017341c04476fbc1737a8e9069fb51c2042fd682269d91f53b1"),
    (["rv", "--x", "0", "--prec", "6"], "fb4aee65c8590ce8d3606014780189ae08c8b9a2e7cb68eb9c3ea3dc73c1b198"),
    # a bad --q is reported before the configuration error (prec <= slack)
    (["tate", "verify-hom", "--q", "5^", "--prec", "5"], "6de79be354ca51f9907e93200aa0ec961ba78114104f4977ce21e3e908f7011b"),
    # one valid call per leaf
    (["exp", "--x", "5", "--prec", "10"], "b2e9a46a3ffb39a3d4752f19c8d3504c0f3b4374a2e8a89d1674a3a3418398fc"),
    (["--p", "5", "--prec", "10", "log", "--y", "1 + 5^2", "--format", "structured"], "dc62778f3ae4dbc9f140746fe4f0b3701f3f533a2206c2762faa1c3a2dca7f41"),
    (["rv", "--x", "5 + 2*5^2", "--lambda", "1", "--prec", "10"], "a8bdd2916dc4b2deb3d18f3fa9e866b4be0492d2742646b4a13928b35a81d64c"),
    (["tate", "invariants", "--q", "5^2", "--prec", "20"], "e41fd5b6f1d70f219289ce985185a7be2ec234351a2c8c05636004e143a2e378"),
    (["tate", "j", "--q", "5^2", "--format", "structured"], "62eca5db592c956d14d482c0daffc1b80d29900ab59e3b59b6742e58901ef776"),
    # recorded while every Lambert weight of a4 and a6 cost one inversion (3.3 s)
    (["tate", "j", "--q", "5", "--prec", "2048"], "cab0594a63c4f07b474c50aeac1e1ec6a87b3952a32bf68d0b79f026eb2b9705"),
    (["tate", "map", "--q", "5^2", "--u", "7", "--prec", "20"], "8dec97edd9be014c346eea29197301540d00b99aa413bd06cf714e394cfc8fcb"),
    (["tate", "add", "--q", "5^2", "--prec", "20", "--x1", _P7_X, "--y1", _P7_Y,
      "--x2", _P7_X, "--y2", _P7_Y], "3bec6efcd8bf0b31736325bf37e7c1080867509fb1c7ee27422b0f1b9c4695d9"),
    (["tate", "verify-hom", "--q", "5^2", "--trials", "2", "--prec", "30"], "a6b08d1815d48dc0b4c8a480998e2897e58887e693ae6f592bd7717de65cd51d"),
    (["tate", "verify-ode", "--p", "3", "--q", "3^2", "--trials", "1", "--seed", "4"], "b9352bb506858d3b1ec40ef47eefd1b6d856d407e8b455b92bb5505bc933cb8a"),
    (["wdiv", "--g", "@G", "--f", "@F", "--prec", "12", "--format", "structured"], "7adab264455ad716795343fc0a856a58bc94334869f2cc518735f52c9974a7ef"),
    (["balls", "next", "--C", "0,1", "--lambda", "0", "--x", "5"], "c41a8c63288c2a5a6fa61cf838a978ce88c954f37c94b39b16c7aae643c77913"),
    (["balls", "same", "--C", "0", "--x", "5", "--y", "30"], "e343bec1c389311cc3235da94d3d09a2fc6fce215554c05dc08bca55c5d6ec87"),
    (["lattice", "smith", "--matrix", "2,4;6,8"], "90fe7c202d53983e974d52686d12df7e156ae2204ccceaf25853316829f349d4"),
    (["lattice", "kernel", "--matrix", "1,1", "--format", "structured"], "379027a14e7551355899587a59fafbbb7f5584dd3b9ecc88e80408d2e6421047"),
    # recorded while U and V were reduced as two matrices beside D: the fold
    # of a row the pivot does not divide, a negative pivot, and a kernel
    (["lattice", "smith", "--matrix", "2,0;0,3"], "8807c7597e2f1094ef5dd6e4c8618a4bb4bd7279a6d2c31c82899f209b00200d"),
    (["lattice", "smith", "--matrix", "6,-4,10;-6,9,15;0,5,-7",
      "--format", "structured"], "720703fea6d44c499ad50f05c92eb7c0f99047e4b517358a5029b667dc22c77e"),
    (["lattice", "smith", "--matrix", "1,2,3,4,5;6,7,8,9,10;11,12,13,14,16",
      "--format", "structured"], "41dee9ab1814b986150622ffcde381fb6a4a4d38d15e4a35b392004ad04fc338"),
    (["lattice", "kernel", "--matrix", "2,4,6,8,10;3,6,9,12,15;1,0,-1,0,1",
      "--format", "structured"], "275b0ad7aa347a165375bd2517d3c54696b145c86ab32f4bae0e4ee790bf8db1"),
    (["geom", "rotund", "--lattice", "@V", "--height", "1"], "7e4bc5163a0ad28217698ccbe6b5606cc9be078bb9a6e08ca5e6e20c853363a2"),
    # recorded while every set of candidate rows was walked (17 s at height 3)
    (["geom", "rotund", "--lattice", "@R3", "--height", "2"], "eece59d5d4e5f793c928418273ab2cb9e03224abb84c59028a51320e0a9506eb"),
    (["geom", "rotund", "--lattice", "@R3", "--height", "3",
      "--format", "structured"], "0ac15260113b8c7bc15ae9c3d029348a361c915aaddfd5c3b386e22f7f4b7cce"),
    # recorded while every row set holding the zero row was ranked again
    (["geom", "rotund", "--lattice", "@K157", "--height", "1"], "8c75e3dddd73f4771d363448dbcf28fa95d2a7487fd2ad797465f6d850730357"),
    (["geom", "rotund", "--lattice", "@K157", "--height", "2",
      "--format", "structured"], "a8bdf68934e6677912a0c4d5749af9e591d37e20119d78bdb3716c3db28e7e8c"),
    (["geom", "rotund", "--lattice", "@W2", "--height", "1"], "8aed73ae16a9a6fb29c73d3b0c55b4e978133e086b57652ff281c09bd764ce21"),
    (["geom", "rotund", "--lattice", "@W3", "--height", "1",
      "--format", "structured"], "dce64706624dc001daa3e67f7eec4f31814644449ae8df7001ea88635d0cfca3"),
    (["geom", "plikely", "--V", "1;0", "--S", "0;1", "--n", "2"], "381d80704f932b887a9b51bdf1d8516d505627ee9424a946b2d039b0133d180b"),
    (["geom", "plikely", "--V", "1;0", "--S", "1;0", "--T", "1;0", "--T", "0;1",
      "--n", "2"], "7138f1dca9bc919552166c4d4e22b4691f14b6a44a0337c7bbd5b4605b79b480"),
    (["geom", "atypical", "--dims", "1,1,1,3"], "dcbc93be9f8b1b1b569a4441cd180174b7d755ae7121d730041063dd1601b2fd"),
    (["relations", "search", "--z", "5", "--z", "2*5", "--height", "3", "--prec", "30"], "2c36a2fcb86153621cb4302aeb9db0bdbc214f9069cdb8d364703b8d16ad2df0"),
    (["relations", "mult", "--q", "5^2", "--u", "7*5^2", "--u", "7", "--height", "2",
      "--prec", "30"], "13f84998c8ff25d94dc7b6a16d30a8df343ff42a9f9e8eea57c46a41032ed4dc"),
    (["harness", "--suite", "exp", "--trials", "1", "--format", "structured"], "a35aa386cf5ad55f9142018552cb0c9c78c9989c5f9a8b26230bf25ae0eccea6"),
    # branches no row above takes: a divisor that is not regular (exit 1), the
    # identity image, a short --dims (exit 2), the tate suite's trials, tuple
    # and eisenstein digit display
    (["wdiv", "--g", "@G", "--f", "@N"], "8e627aa82abc69bb2e69cbe5f2c87ae2d8fca28b7915703ec8dccf9c8b1cff5a"),
    (["tate", "map", "--q", "5^2", "--u", "5^2"], "1e88807885f679c3fa8366521a2ca0b3926a1090a9ea0f81fc10b5abc68c487c"),
    (["geom", "atypical", "--dims", "1,1,1"], "93341e70380345238aa133de85d0cd27ed569f16e0e6818346ce116ff04e159d"),
    (["harness", "--suite", "tate", "--trials", "1", "--format", "structured"], "02e22c56ed5c3908bacd35a9c68fe95c1fb10e2e502ef2fdc8c21c947f3b1b1a"),
    (["exp", "--p", "3", "--ext", "unramified:f=2", "--x", "3+3*g", "--prec", "6"], "45a17341288da571b3fd13d7c20a2c1f69b3226d7d55000e09e505884224b13c"),
    (["log", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--y", "1+pi^3", "--prec", "10"], "c30c1cdbb041d05c95d9d299fc626fabd53f7203db314f9b1a6a13590ba3de48"),
    # exp and log at prec 640 over each field kind, recorded before each
    # series was summed with one reduction
    (["exp", "--p", "2",
      "--x", "4", "--prec", "640"], "75ed439c87392b616e8e373f84a76b695e8abb6689a391bb7ed281c4d6cbcbd3"),
    (["log", "--p", "2",
      "--y", "5", "--prec", "640", "--format", "structured"], "4b7344d1ede15299ec2e06fc006704a45cc544ba84e4d8a4397dae0532b41cce"),
    (["exp", "--p", "5", "--ext", "eisenstein:e=4,c=-1",
      "--x", "pi^2+3*pi^3", "--prec", "640"], "b6446263a14a0153aeb2bc82357eca2be01d5ecd3464c3edb64201a098d67d3a"),
    (["log", "--p", "5", "--ext", "eisenstein:e=4,c=-1",
      "--y", "1+pi^2", "--prec", "640"], "6962d54e9a871e3c666b6c1b6e562808c3020823c27a1158b34fcd296cf2d7b1"),
    (["exp", "--p", "3", "--ext", "unramified:f=3",
      "--x", "3+3*g^2", "--prec", "640"], "763d4ad55f17d6883d6cbdd1565697b75b031ea5f7aaa87f96e4467f2fd3be64"),
    (["log", "--p", "3", "--ext", "unramified:f=3",
      "--y", "1+3*g", "--prec", "640", "--format", "structured"], "0c0037cf29ebd5b484890b28cc3f2dc30b9d3db5c669d9c591c252e4cf3bea24"),
    # exp and log at prec 640 two shifts in from the ball's edge, and logs of
    # arguments known short of the precision, recorded while log searched for
    # a certified tail bound instead of stopping at its exact last term
    (["exp", "--p", "2",
      "--x", "2^4+2^5+2^9", "--prec", "640"], "12af6b78961ba36eaa3bc7683e131492923fdc84e0e079c4895ce0bae72fc402"),
    (["log", "--p", "2",
      "--y", "1+2^4+2^7", "--prec", "640", "--format", "structured"], "fc4cf4fb112aa9607ccaa2c74fa4e744df35f04d8d38f89ff03d265f64adc442"),
    (["log", "--p", "2",
      "--y", "1+2^3+O(pi^600)", "--prec", "640", "--format", "structured"], "fc7f15ab85b34e58fecff46e4bd509ef6fd07d3019a940d2cb26d97f748690e5"),
    (["exp", "--p", "5", "--ext", "eisenstein:e=4,c=-1",
      "--x", "pi^4+2*pi^5+pi^9", "--prec", "640"], "c5d3311b5118207847e85cc42349bbe5fbd976d689a08c5a28ec9a7b93f2ac95"),
    (["log", "--p", "5", "--ext", "eisenstein:e=4,c=-1",
      "--y", "1+pi^4+3*pi^6", "--prec", "640", "--format", "structured"], "5f3a8b58069ece82af96c8e34b11b0a46243ae703622f0b4cdc9cca1eb67ce7b"),
    (["log", "--p", "5", "--ext", "eisenstein:e=4,c=-1",
      "--y", "1+2*pi^2+O(pi^500)", "--prec", "640"], "b1963d06efa97a6ffcaa827be370a549b2ebbd71c413e213472bc079af87a78e"),
    (["exp", "--p", "3", "--ext", "unramified:f=3",
      "--x", "27*g+81", "--prec", "640"], "ca21aeaf244f6304b56e9e2cd65ab970d0120677ef1ee5cd3e3b480d9d823219"),
    (["log", "--p", "3", "--ext", "unramified:f=3",
      "--y", "1+27+27*g^2", "--prec", "640"], "8e4d533a1a178ad3d2c3cfbf40761955fc6d7732193ef07d2b71917b327fc5ba"),
    (["log", "--p", "3", "--ext", "unramified:f=3",
      "--y", "1+3*g^2+O(pi^400)", "--prec", "640", "--format", "structured"], "11bf7275eb4e8997b1e08320382847f0468aa5b0197b305f7df6381a986e6e56"),
    # exp and log at prec 2048, and over Q_3(pi^3=6), where log's term
    # ratio -t(n-1)/n reaches the c^-w factor of the unit whenever p | n-1,
    # recorded while exp and log drew their terms from two generators
    (["exp", "--p", "5", "--x", "5", "--prec", "2048"], "7a62c0784bd60e3b34cc6161308bb0c88ecd3d261b3f6ec1820b9aeb8a79a635"),
    (["log", "--p", "5", "--y", "6", "--prec", "2048"], "b5c9d02e7ca04245cf986608c62dffae056a22ecedc6381cab00708fef5f70f6"),
    (["log", "--p", "3", "--ext", "eisenstein:e=3,c=2",
      "--y", "1+pi^2", "--prec", "640"], "3c4c196b4c7442c9116823a6daa0286f2173c5033290a791c9d29feabafc16fc"),
    (["exp", "--p", "3", "--ext", "eisenstein:e=3,c=2",
      "--x", "pi^2", "--prec", "640"], "2bec4f480d5b77d8d7674ea2d53c0010329141736f01c333594740f0da6fc407"),
    # log over Q_3(pi^3=6) at prec 900, where num(n)/n = 3^w a/b has |w| up
    # to 5 and so meets c^-w at ten w, recorded while each term multiplied
    # by the K-digit unit of num(n)/n
    (["log", "--p", "3", "--ext", "eisenstein:e=3,c=2",
      "--y", "1+pi^2", "--prec", "900"], "25ad7766ee8f90c4a9b03d980bab8014fd59d052a3f659aabc632922a6e801a7"),
    # relation searches, recorded while the search walked the whole box: 255
    # hits in itertools.product order, and an unramified field
    (["relations", "search", "--z", "7", "--z", "11", "--z", "13", "--z", "2*7-3*11+13",
      "--height", "10", "--prec", "60"], "2b6e246c77be26abed5cadd069427a54946afc57ec4b992b6008fc8d82c65125"),
    (["relations", "search", "--p", "5", "--ext", "unramified:f=2", "--z", "7", "--z", "11",
      "--z", "2*7+3*11", "--height", "5", "--prec", "30"], "fb22c86e53cb88fd3167852cd388719f3473ea1c5207381a8a9257b83a9354b0"),
    # the harness's one verification failure, the known false failure of
    # ode_doubled/5 (exit 1); its digest changes when that threshold is fixed
    (["harness", "--suite", "tate", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--trials", "6"], "0c9b28f043702cfab075c4efc790263a926e2319c132bbd15b53009d2eb76178"),
    # three-variable divisions with a nonzero eps over an eisenstein and an
    # unramified field, recorded while the series layer added coefficients
    # one PadicElement operation at a time, and again when the q and r
    # records gained their "prec" key
    (["wdiv", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--g", "@G3", "--f", "@FE",
      "--prec", "20", "--format", "structured"], "58ac71eef29d6aaa390e86907f36dad128c5fa50baef63d624cfb94307234f2c"),
    (["wdiv", "--p", "5", "--ext", "unramified:f=2", "--g", "@G3", "--f", "@FU",
      "--prec", "20", "--format", "structured"], "f2f76e230a630835bf722648294460d2421e2d89a414b294fa275b390f415bba"),
    # the weierstrass suite over Q_5, Q_2 and an eisenstein field, recorded
    # while its oracle/* records still solved each division over Q
    (["harness", "--suite", "weierstrass", "--format", "structured"], "3df130444d08509eef522176ec74362a1ba7c5989df22c13e6a5618faa261079"),
    (["harness", "--suite", "weierstrass", "--format", "structured",
      "--p", "2"], "54e2aae3bf28f4f080865e4117bb90db324b110e02974e189893a7097a7a0da0"),
    (["harness", "--suite", "weierstrass", "--format", "structured",
      "--p", "5", "--ext", "eisenstein:e=2,c=1"], "5100d8bb440a3442f03b90891d9a11d70c0e68e5f1b9665b57dcb84ca1b8ef56"),
    # point series beyond prec 40 and over extension fields, recorded while
    # each coefficient of X and Y was reduced on its own
    (["tate", "verify-ode", "--p", "5", "--q", "5^2", "--trials", "1",
      "--prec", "1024"], "3fd704cf84c0d8540a8358afcdd28133b0aa524139a694aafd0242e26f635c17"),
    (["tate", "map", "--q", "5^2", "--u", "7", "--prec", "2048"], "b66c5f1f3c3d7bb52bf87259c4dbf5e07a25c0b086b901bbfdc3855f796b67fb"),
    (["tate", "map", "--p", "3", "--ext", "unramified:f=2", "--q", "3^3", "--u", "3*g+1",
      "--prec", "400"], "463c2047e480ecf670b4e375b4f898ea647bb1b42cc1090d53bee77873fff913"),
    (["tate", "verify-ode", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--q", "pi^3",
      "--trials", "2", "--prec", "200"], "adef50ccae1e95c263e642e2c22baec8529173693874ea8eb9b3da857823575e"),
    # point series above prec 400 outside Q_5, recorded while each Lambert
    # weight q^m/(1-q^m) was one inversion
    (["tate", "map", "--p", "2", "--q", "2^3", "--u", "3",
      "--prec", "1024"], "bd8013a876e282a1a5980117dc3dd029e66e6ec86d1a260a8453fe3e93891857"),
    (["tate", "map", "--p", "5", "--ext", "eisenstein:e=4,c=-1", "--q", "pi^5", "--u", "2+pi",
      "--prec", "400"], "0dff072b79204365dd44ca3104772864899890889336a3ede8e446f638e79e01"),
    # a literal of negative valuation, printed whole: recorded after each term
    # of a literal was read exactly, known to pi^20 (the guessed working
    # precision before left it known to pi^12)
    (["balls", "next", "--C", "0", "--x", "5^-30+1", "--prec", "20"], "c0ff8f372232fd561d1c373768e665ec9afdf13fecfd6248a92b116dcfdc1d9a"),
]


def golden_digest(argv) -> str:
    """SHA-256 of the exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture
def golden_env(tmp_path, monkeypatch):
    """Fixed help width and the input files; returns the argv rewriter that
    puts their paths in place of the @names."""
    monkeypatch.setenv("COLUMNS", "80")
    paths = {}
    for name, content in GOLDEN_FILES.items():
        path = tmp_path / (name[1:] + ".json")
        path.write_text(json.dumps(content))
        paths[name] = str(path)
    return lambda argv: [paths.get(a, a) for a in argv]


class TestGoldenBytes:
    def test_outputs_match_recorded_digests(self, golden_env):
        # forward, then reversed in the same process: any state one call
        # leaves in the shared parser shows up as a changed digest
        for argv, digest in GOLDEN + GOLDEN[::-1]:
            assert golden_digest(golden_env(argv)) == digest, argv


class TestParserReuse:
    def test_first_call_builds_the_tree_and_later_calls_none(self, count_calls, capsys):
        built = count_calls((argparse.ArgumentParser, "__init__"))
        cli._build_parser.cache_clear()
        # the shared flags, the top parser, five command groups and 20 leaves
        assert built(lambda: main(["exp", "--x", "5", "--prec", "5"])) == ({"__init__": 27}, 0)
        later = built(lambda: [main(["exp", "--x", str(5 * k), "--prec", "5"]) for k in range(20)]
                      + [main(["geom", "atypical", "--help"])])
        assert later == ({}, [0] * 21)

    def test_omitted_T_is_zero_after_a_call_with_T(self, capsys):
        base = ["geom", "plikely", "--V", "1;0", "--S", "1;0", "--n", "2",
                "--format", "structured"]
        code, out = run_cli(capsys, *base, "--T", "1;0", "--T", "0;1")
        assert code == 1 and [r["rhs"] for r in records(out)] == [1, 1]
        code, out = run_cli(capsys, *base)
        # one quotient, T = 0, so rhs = n
        assert code == 0 and records(out) == [
            {"op": "geom.plikely", "index": 0, "ok": True, "lhs": 2, "rhs": 2}]
        assert cli._build_parser().parse_args(base).T == []

    def test_only_dispatch_and_main_are_public(self):
        # every public function of cli is traced as a span, and main is the
        # one counted as a CLI call
        public = [name for name, obj in vars(cli).items()
                  if inspect.isfunction(obj) and obj.__module__ == cli.__name__
                  and not name.startswith("_")]
        assert sorted(public) == ["dispatch", "main"]

    def test_repeated_z_lists_are_not_shared(self, capsys):
        argv = ["relations", "search", "--z", "5", "--z", "2*5", "--height", "2"]
        first = cli._build_parser().parse_args(argv)
        second = cli._build_parser().parse_args(argv[:4] + argv[6:])
        assert first.z == ["5", "2*5"] and second.z == ["5"]
        assert first.z is not second.z
        _, both = run_cli(capsys, *argv, "--format", "structured")
        _, alone = run_cli(capsys, *argv[:4], *argv[6:], "--format", "structured")
        assert records(both)[0]["relations"] == "[[2, -1]]"
        assert records(alone)[0]["relations"] == "[]"


IMPORT_PROBE = """
import sys
import padic_tate
import padic_tate.cli
assert "padic_tate.harness" not in sys.modules, "imported with the package"
from padic_tate import RunConfig
assert padic_tate.run_suite is sys.modules["padic_tate.harness"].run_suite
assert padic_tate.RunConfig is RunConfig
assert padic_tate.harness.parse_extension is padic_tate.field.parse_extension
try:
    padic_tate.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""


class TestImportHygiene:
    def run_fresh(self, code):
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=fresh_env(), timeout=60)

    def test_package_and_cli_leave_the_harness_unimported(self):
        proc = self.run_fresh(IMPORT_PROBE)
        assert proc.returncode == 0, proc.stderr

    def test_harness_command_imports_it_on_demand(self):
        proc = self.run_fresh(
            "import sys\n"
            "from padic_tate.cli import main\n"
            "assert 'padic_tate.harness' not in sys.modules\n"
            "sys.exit(main(['harness', '--suite', 'exp', '--trials', '1']))\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "suite=exp  summary=True  ok=True  records=4"

    def test_other_commands_leave_the_harness_unimported(self):
        proc = self.run_fresh(
            "import sys\n"
            "from padic_tate.cli import main\n"
            "assert main(['exp', '--x', '5']) == 0\n"
            "assert main(['tate', 'j', '--q', '5^2']) == 0\n"
            "assert 'padic_tate.harness' not in sys.modules\n")
        assert proc.returncode == 0, proc.stderr

    def test_suite_names_are_the_harness_suites(self):
        from padic_tate import harness
        assert cli.SUITE_NAMES == tuple(sorted(harness.SUITES))

    def test_suite_parameters_are_what_the_cli_passes(self):
        # --trials reaches exp and tate, --q reaches tate; every other suite
        # has one size, so no option exists that only a test could set
        from padic_tate import harness
        params = {name: list(inspect.signature(suite).parameters)
                  for name, suite in harness.SUITES.items()}
        assert params == {"exp": ["config", "trials"],
                          "tate": ["config", "q_literal", "trials"],
                          "weierstrass": ["config"],
                          "balls": ["config"],
                          "lattice": ["config"]}


class TestModuleEntry:
    """``python -m padic_tate`` is the command line without an install."""

    @pytest.mark.parametrize("lattice, height, code", [
        ({"n": 3, "mult": [[1, 2, 0], [0, 1, -1], [2, 0, 1]],
          "ell": [[2, 1, 1], [1, -1, 0], [0, 1, 2]]}, "3", 0),
        ({"n": 2, "mult": [[1], [0]], "ell": [[1], [0]]}, "2", 1),
        ({"n": 2, "mult": [[1], [0]], "ell": [[1], [0]]}, "-1", 2),
    ], ids=["verified", "refuted", "usage-error"])
    def test_matches_in_process_main(self, tmp_path, capsys, lattice, height, code):
        path = tmp_path / "V.json"
        path.write_text(json.dumps(lattice))
        argv = ["geom", "rotund", "--lattice", str(path), "--height", height]
        assert main(argv) == code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "padic_tate", *argv],
                              capture_output=True, text=True, env=fresh_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def run_child(argv, stdout, unbuffered):
    """Run the CLI in a fresh interpreter with the given stdout."""
    env = dict(fresh_env(), PYTHONUNBUFFERED="1" if unbuffered else "")
    return subprocess.run([sys.executable, "-m", "padic_tate.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)


class TestOutputErrors:
    """A failed write to stdout exits 2 with one line on stderr, and nothing
    is printed at interpreter exit."""

    # an unbuffered stdout fails in print, or for help text in the parser's
    # own write; a buffered one in the flush at the end of main
    CASES = pytest.mark.parametrize("argv, unbuffered", [
        (["exp", "--x", "5", "--prec", "10"], False),
        (["exp", "--x", "5", "--prec", "10"], True),
        (["--help"], False),
        (["--help"], True),
    ], ids=["exp", "exp-unbuffered", "help", "help-unbuffered"])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @CASES
    def test_full_device(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            proc = run_child(argv, full, unbuffered)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")

    @CASES
    def test_closed_pipe(self, argv, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_child(argv, write, unbuffered)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write output: {os.strerror(errno.EPIPE)}\n")

    def test_closed_stdout_is_not_an_error(self):
        # a process started with stdout closed has sys.stdout None, and
        # print writes nothing
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m padic_tate.cli exp --x 5 >&-', sys.executable],
            capture_output=True, text=True, env=fresh_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")


def readme_cli_lines():
    """The command lines in the fenced block of README's CLI section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("padic-tate ")]


class TestReadme:
    def test_cli_block_is_not_empty(self):
        assert len(readme_cli_lines()) >= 20

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_cli_line_parses(self, line):
        # parsed only: a renamed flag or leaf exits 2 here
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.run)


class TestDimensionBound:
    """A lattice dimension n arrives as one JSON integer, so nothing of size
    n may be built before it is refused."""

    def measured(self, argv):
        cli._build_parser()          # built before measuring
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(argv)
        finally:
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return code, elapsed, peak

    @pytest.mark.parametrize("height", ["0", "1"])
    def test_rotund_refuses_huge_n_at_once(self, tmp_path, capsys, height):
        path = tmp_path / "V.json"
        path.write_text(json.dumps({"n": 10 ** 6}))
        code, elapsed, peak = self.measured(
            ["geom", "rotund", "--lattice", str(path), "--height", height])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 1000000x1000000 candidate matrices exceed 5000000 entries\n")
        # one slot per unit of n would already take 8 MB
        assert elapsed < 1.0 and peak < 10 ** 6

    def test_plikely_default_T_is_not_built(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"entries": []}))
        code, elapsed, peak = self.measured(
            ["geom", "plikely", "--V", str(empty), "--S", str(empty), "--n", "1000000"])
        assert code == 1
        assert capsys.readouterr().out == (
            "op=geom.plikely  index=0  ok=False  lhs=0  rhs=1000000\n")
        assert elapsed < 1.0 and peak < 10 ** 6


def load_digests():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "scripts" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


class TestDigestScript:
    def test_cheap_row_matches_in_process_run(self, capsys):
        # scripts/digests.py runs the harness in a child interpreter; its row
        # for --p 2 at seed 0 matches the same run made here
        digests = load_digests()
        config = ("--p", "2")
        assert config in digests.CONFIGS and 0 in digests.SEEDS
        code, out = run_cli(capsys, "harness", "--suite", "all", "--format", "structured",
                            *config, "--seed", "0")
        sha = hashlib.sha256(out.encode()).hexdigest()
        assert digests.row(config, 0) == f"--p 2  seed=0  exit={code}  sha256={sha}"

    def test_cli_rows_are_recorded(self):
        # exp and log at the --prec cap, each in a child interpreter
        digests = load_digests()
        recorded = (ROOT / "scripts" / "digests.txt").read_text().splitlines()
        assert {digests.cli_row(argv) for argv in digests.CLI_ROWS} <= set(recorded)

    def test_perfbench_row_is_recorded(self, monkeypatch):
        # the short workload divides series and parses --lambda in the CLI;
        # the replay puts perfbench/ on sys.path, which is restored after
        monkeypatch.setattr(sys, "path", list(sys.path))
        digests = load_digests()
        row = digests.perfbench_row("short")
        assert row in (ROOT / "scripts" / "digests.txt").read_text().splitlines()
        import run
        assert digests.WORKLOADS == run.WORKLOAD_NAMES
