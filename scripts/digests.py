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
# (x, y) of tate map at --prec 1024: --p 2 --q 2^3 at --u 3 and --u 5, and
# --p 5 --ext eisenstein:e=2,c=1 --q pi^4 at --u 2*pi^3+pi^5 and --u 3
_Q2_U3 = (
    ("(71589249293350930465000120312208093845753958512301483438257284859834509459571703347"
     "009515093892043617884394945868192208785538468540882033839271591400876365661087226147"
     "529522985329629083807676573514076432527923518000989716998460227890398476204831718297"
     "802034218974112981642203827749414061700054795546831946115)*pi^-2+O(pi^1021)"),
    ("(45664044638029142242943718351394710524266566790990124647991007787525402705031816365"
     "030080426581926605017541984151132006390181218977196044684911322905945387637291517876"
     "222433017773890947050803455676276910183998456530346069097987849174563302765719918393"
     "229754747280800539694008899779622787625588483522833236343)*pi^-3+O(pi^1020)"),
)
_Q2_U5 = (
    ("(42197137069823798839794246632347986114838888287021438594077214678713037414146205314"
     "707835520896216073285523085659992971977527597271827974584121663721095198114805140450"
     "738561518082506263628119405018898993364643619380212642259960337255011591860195722418"
     "472068258548352518825318814656841493029885892698151561221)*pi^-4+O(pi^1018)"),
    ("(10981779892655540158899911381093260067367826312957239797981871471823763073179501998"
     "148757306735009962356043513397121556527028166162387820729203316061415018618376028668"
     "771473578919794063839477785759888548175030638046789624008762977215335844697012136452"
     "658738183333375622049245332663110435918892915745116366823)*pi^-6+O(pi^1016)"),
)
_E52_U1 = (
    ("(16151792580804324904679621369453685245331115782856487966983656348297779977160429153"
     "670242388588700791039350044865177388620110106576112910383185818976689350765501992249"
     "861375501924437022341090310617185104031838600756516778250417385858324661196515579209"
     "182748198618631259581195070770116973645937182442604446754838837912229235281982474428"
     "2202081842077960998733+6560097982093363312281967826958678011371318001311861569998251"
     "863415882780799263333534760358339404157577634691296054221553826377488523000283824741"
     "140697511059929618071353494381364718754011089903828224509234730123702311429606997995"
     "003028895489270163843885050974595275961529639412996546245409428348500307808677751571"
     "8841986067946563893178312850240251563391333*pi^1)*pi^1+O(pi^1021)"),
    ("(16051524562995675865145617554507311666549293366952153257940527526562247386335924364"
     "298188373554810125247739231099264987760712127771474309441538107769780119203678891472"
     "688475804467327210750729061456886689713543958025771214043943060717202319349104826710"
     "354144657094968725853471578013069463604895147090625935819835748983163023992629842208"
     "5682871781386653256197+6006568175329727269131330312962646687599417677122914317677529"
     "861814388083084881198919030727782082120921378996552659212595196746800037491666258720"
     "359932048169618325376220802644515883757947150311046855808145307707825783709965118490"
     "321587891223798192717170168091949533495416388095373491729683185099663795884400995391"
     "0352330610982998415651489899867910216877733*pi^1)*pi^1+O(pi^1021)"),
)
_E52_U2 = (
    ("(39722510165950131842931140516853909606160545614641406925700647239837533528545912736"
     "387692712524307163706409088294590619372516206604563053328881338619005770084114905927"
     "690095071010759230930883070016030986317650010999628412135091344473638155584833227255"
     "362111863207003795349040425668060413869358481772135865471675359720023393775650485247"
     "32876327188950652083107)*pi^0+O(pi^1024)"),
    ("(10875909558217257616819523566718871126644983693388827330080239102033948670467643547"
     "805069872417514995126403314600333324556261942653730055016012264058943226711088962751"
     "788200274908564157838117131134576115852130559744887842672300652649674858938970221457"
     "555411998579727004795778727598231545785018979151078425397367355111295827269981635660"
     "7071491066265766305927)*pi^0+O(pi^1024)"),
)
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
# pair of samples can be drawn, new output: before it the command never ended;
# then tate add, a chord and a doubling over Q_2 and over a ramified field, of
# the points tate map gives on the same curve (the coordinates above, each
# pi^shift times its unit to its own precision), recorded while the group law
# and its on-curve check were chains of PadicElement operators
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
    ("tate", "add", "--p", "2", "--q", "2^3", "--prec", "1024",
     "--x1", _Q2_U3[0], "--y1", _Q2_U3[1], "--x2", _Q2_U5[0], "--y2", _Q2_U5[1]),
    ("tate", "add", "--p", "2", "--q", "2^3", "--prec", "1024",
     "--x1", _Q2_U3[0], "--y1", _Q2_U3[1], "--x2", _Q2_U3[0], "--y2", _Q2_U3[1]),
    ("tate", "add", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--q", "pi^4", "--prec", "1024",
     "--x1", _E52_U1[0], "--y1", _E52_U1[1], "--x2", _E52_U2[0], "--y2", _E52_U2[1]),
    ("tate", "add", "--p", "5", "--ext", "eisenstein:e=2,c=1", "--q", "pi^4", "--prec", "1024",
     "--x1", _E52_U1[0], "--y1", _E52_U1[1], "--x2", _E52_U1[0], "--y2", _E52_U1[1]),
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


def _label(token: str) -> str:
    """token, or for a point coordinate longer than 64 characters its length
    and the start of its SHA-256, so that a row stays one short line."""
    if len(token) <= 64:
        return token
    return f"<{len(token)} chars {hashlib.sha256(token.encode()).hexdigest()[:16]}>"


def cli_row(argv) -> str:
    """The line of one CLI call."""
    code, sha = _run_cli(*argv)
    return f"{' '.join(map(_label, argv))}  exit={code}  sha256={sha}"


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
