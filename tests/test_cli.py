import hashlib
import json

import pytest

from padic_tate.cli import main


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

    def test_domain_error_is_2(self, capsys):
        assert main(["log", "--p", "5", "--y", "2", "--prec", "6"]) == 2

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
        ["rv", "--x", "1+pi", "--lambda", "0", "--ext", "eisenstein:e=65,c=1", "--prec", "5"],
        ["exp", "--x", "5", "--ext", "eisenstein:e=2,C=3"],
        ["exp", "--x", "5", "--ext", "eisenstein:e=2,e=3"],
        ["exp", "--x", "5", "--ext", "unramified:f=2,poly=1,0,1"],
    ], ids=["rv-lambda", "balls-lambda", "rotund-height", "search-height", "mult-height",
            "harness-trials-negative", "harness-trials-zero", "verify-hom-trials",
            "wdiv-active-zero", "eisenstein-degree", "ext-unknown-key", "ext-repeated-key",
            "ext-poly-after-f"])
    def test_bad_argument_is_2(self, tmp_path, capsys, argv):
        files = {"LATTICE": {"n": 2, "mult": [[1], [0]]},
                 "SERIES": {"nvars": 1, "terms": [{"exp": [1], "coeff": "1"}]}}
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1


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
    ], ids=["exp-domain", "exp-boundary", "log-boundary", "same-imprecise",
            "next-member-of-C", "rv-value-group", "rv-negative", "add-off-curve"])
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
