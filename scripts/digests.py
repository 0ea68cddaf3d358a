#!/usr/bin/env python3
"""Digests of the harness reports and the benchmark results, to check that a
change keeps them byte-identical.

Usage: python scripts/digests.py

Runs `padic-tate harness --suite all --format structured` of the checkout
this script sits in, in a fresh interpreter per row, for each field
configuration in CONFIGS at seeds 0 and 1, and prints one line per row:
the configuration, the seed, the exit code and the SHA-256 of stdout.
Then, for each perfbench workload, it runs `perfbench/run.py`'s own request
loop, `run.measure`, at seed 7 for MIN_REQUESTS requests in this process,
and prints the result digest that run.py reports.  Run it in two checkouts
and compare the outputs.  scripts/digests.txt holds the rows of this tree, which CI diffs
against on each supported Python.  Each row's wall time goes to stderr, so
stdout, and the diff, stay the same while a slow row shows in the log.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

CONFIGS = (
    ("--p", "5"),
    ("--p", "2"),
    ("--p", "3", "--ext", "unramified:f=2"),
    ("--p", "5", "--ext", "eisenstein:e=2,c=1"),
    ("--p", "5", "--ext", "eisenstein:e=4,c=-1"),
)
SEEDS = (0, 1)
# perfbench/run.py's WORKLOAD_NAMES, at the seed its recorded digests use
WORKLOADS = ("tate", "hiprec", "short", "lattice")
PERFBENCH_SEED = 7
# exp and log at the --prec cap, where the series terms dominate, and a log
# in an eisenstein field with c != 1, whose printed digits divide by c; then
# a literal of negative valuation that balls next prints whole, recorded
# after each term of a literal was read exactly to --prec; then a point
# series at the --prec cap, recorded while each Lambert weight was one
# inversion; then exp and log at the cap over Q_2, whose tails fall furthest
# below their block's first term, and over the cubic unramified Q_3, whose
# products are the longest, recorded while each series term was one product;
# then point series at v(u) > 0, at the cap over Q_5 and over an eisenstein
# and an unramified field, recorded while X and Y were sums of PadicElement
# products; then the ODE and X' checks, whose X' is the principal part's
# derivative, a digit short of its closed form at p = 2, plus the series'
# X', over Q_2 and over a ramified field, recorded while X' was summed over
# DualElement chains of u^m, u^-m and S_m; then points whose principal part
# sets the precision, v(1-u) = 2 over Q_5 and v(1-u) = 1 over Q_2, recorded
# while the principal parts were PadicElement products; then a point and the
# ODE and X' checks over Q_p at a large p, recorded while the point's pass over
# Q_p ran on one-entry coefficient lists; then curves whose q has a unit other
# than 1, over Q_5 and Q_2 and over an unramified and an eisenstein field, so
# that q's powers are not trivial and the working precision of the sums of a4,
# a6 and s_k shows in the digits, recorded while those sums were chains of
# element powers of q; then curves whose last Lambert term, n = ceil(N/v(q)),
# is half the sum, recorded while the sums of a4, a6 and s_k still summed it;
# then points where the theta series' working precision differs most from the
# Lambert pass's: p = 2 at the --prec cap with v(1-u) = 2, v(u) = v(q) - 1 in a
# ramified field, and v(1-u) = 2 in an unramified field, recorded while the
# point was the Lambert pass over the cached weights q^m/(1-q^m); then the
# refusal of a q of valuation 1/e over a residue field of 2 elements, where no
# pair of samples can be drawn, new output: before it the command never ended
CLI_ROWS = (
    ("exp", "--p", "5", "--x", "5", "--prec", "4096"),
    ("log", "--p", "5", "--y", "6", "--prec", "4096"),
    ("log", "--p", "5", "--ext", "eisenstein:e=4,c=-1", "--y", "1+pi^2", "--prec", "4096"),
    ("balls", "next", "--C", "0", "--x", "5^-30+1", "--prec", "20"),
    ("tate", "map", "--q", "5^2", "--u", "7", "--prec", "4096"),
    ("exp", "--p", "2", "--x", "4", "--prec", "4096"),
    ("log", "--p", "2", "--y", "5", "--prec", "4096"),
    ("exp", "--p", "3", "--ext", "unramified:f=3", "--x", "3*g+3", "--prec", "4096"),
    ("log", "--p", "3", "--ext", "unramified:f=3", "--y", "1+3*g", "--prec", "4096"),
    ("tate", "map", "--q", "5^2", "--u", "35", "--prec", "4096"),
    ("tate", "map", "--p", "5", "--ext", "eisenstein:e=4,c=-1", "--q", "pi^5",
     "--u", "2*pi^3+pi^4", "--prec", "1024"),
    ("tate", "map", "--p", "3", "--ext", "unramified:f=2", "--q", "3^3", "--u", "9*g+3",
     "--prec", "1024"),
    ("tate", "verify-ode", "--p", "2", "--q", "2^3", "--trials", "1", "--prec", "1024"),
    ("tate", "verify-ode", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--q", "pi^3",
     "--trials", "1", "--prec", "1024"),
    ("tate", "map", "--q", "5^2", "--u", "26", "--prec", "1024"),
    ("tate", "map", "--p", "2", "--q", "2^3", "--u", "3", "--prec", "1024"),
    ("tate", "map", "--p", "1000003", "--q", "1000003^2", "--u", "7", "--prec", "200"),
    ("tate", "verify-ode", "--p", "1000003", "--q", "1000003^2", "--trials", "2",
     "--prec", "120"),
    ("tate", "invariants", "--q", "7*5^2+5^3", "--prec", "4096"),
    ("tate", "invariants", "--p", "2", "--q", "3*2^3+2^5", "--prec", "1024"),
    ("tate", "invariants", "--p", "3", "--ext", "unramified:f=2", "--q", "(g+1)*3^2",
     "--prec", "1024"),
    ("tate", "j", "--p", "5", "--ext", "eisenstein:e=4,c=-1", "--q", "2*pi^5+pi^6",
     "--prec", "1024"),
    ("tate", "invariants", "--q", "5^3", "--prec", "5"),
    ("tate", "invariants", "--p", "2", "--q", "3*2^4", "--prec", "7"),
    ("tate", "map", "--p", "2", "--q", "2^3", "--u", "5", "--prec", "4096"),
    ("tate", "map", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--q", "pi^4",
     "--u", "2*pi^3+pi^5", "--prec", "1024"),
    ("tate", "map", "--p", "3", "--ext", "unramified:f=2", "--q", "3^2", "--u", "1+9*g",
     "--prec", "1024"),
    ("tate", "verify-hom", "--p", "2", "--q", "2"),
)


def _run_cli(*args: str) -> tuple[int, str]:
    """The exit code and stdout SHA-256 of one CLI call, made in a child
    interpreter that imports this checkout's src/ and sees no PADIC_TATE_SEED."""
    env = {k: v for k, v in os.environ.items() if k != "PADIC_TATE_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-m", "padic_tate.cli", *args], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return run.returncode, hashlib.sha256(run.stdout).hexdigest()


def row(config, seed: int) -> str:
    """The line of one harness run."""
    code, sha = _run_cli("harness", "--suite", "all", "--format", "structured",
                         *config, "--seed", str(seed))
    return f"{' '.join(config)}  seed={seed}  exit={code}  sha256={sha}"


def cli_row(argv) -> str:
    """The line of one CLI call."""
    code, sha = _run_cli(*argv)
    return f"{' '.join(argv)}  exit={code}  sha256={sha}"


def perfbench_row(workload: str, seed: int = PERFBENCH_SEED) -> str:
    """The line of one workload: run.Tally's digest of its requests
    0..MIN_REQUESTS-1, made by run.measure with no time budget."""
    for path in (str(PERFBENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import run
    import workloads

    wl = workloads.WORKLOADS[workload]
    tally = run.measure(wl, wl.setup(), seed, 0)[0]
    return f"perfbench {workload}  seed={seed}  sha256={tally.digest}"


def timed(make_row, *args) -> None:
    """Print one row to stdout and its wall time to stderr."""
    start = time.perf_counter()
    line = make_row(*args)
    print(line, flush=True)
    label = line.rsplit("  sha256=", 1)[0]
    print(f"{time.perf_counter() - start:.2f} s  {label}", file=sys.stderr, flush=True)


def main() -> int:
    for config in CONFIGS:
        for seed in SEEDS:
            timed(row, config, seed)
    for workload in WORKLOADS:
        timed(perfbench_row, workload)
    for argv in CLI_ROWS:
        timed(cli_row, argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
