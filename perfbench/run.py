"""Closed-loop benchmark of padic-tate: one caller, one process, no threads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run times set-up in fresh interpreters, warms up on requests that are not
measured, then sends requests one after another until ``--seconds`` have
passed and at least ``MIN_REQUESTS`` are done.  Every result is checked
right after its request, outside the timed region.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import CAL_REF_S, SpeedTrack

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REQUESTS = 100        # p90 needs ten samples beyond it; also the digest window
WARMUP = 6                # unmeasured requests -6..-1: every kind of every cycle, and even,
                          # so that hiprec starts on an exp
MAX_LOOP_S = 120          # hard stop, so a run ends well inside 180 s
SETUP_PROBES = 15         # fresh interpreters timed, after one unmeasured probe
WORKLOAD_NAMES = ("tate", "hiprec", "short", "lattice")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def probe_setup(workload: str) -> tuple[float, float, float]:
    """Median set-up and import time over fresh interpreters, each scaled to
    the reference speed by the calibration kernel timed in the same
    interpreter (clock.py), and the median unscaled set-up time."""
    runs = []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if k:
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(r["setup_s"] * CAL_REF_S / r["kernel_s"] for r in runs),
            statistics.median(r["import_s"] * CAL_REF_S / r["kernel_s"] for r in runs),
            statistics.median(r["setup_s"] for r in runs))


class Tally:
    """Checks results one at a time, outside the timed region, so that no
    result outlives its check: the failures, the smallest margin, the digest
    of the first MIN_REQUESTS canonical results and the workload's own
    counters over those requests."""

    def __init__(self, wl, ctx):
        self.wl, self.ctx = wl, ctx
        self.requests = self.failed = 0
        self.margin = None
        self.counters = {}
        self._digest = hashlib.sha256()

    def add(self, inp, out, err) -> None:
        if err is not None:
            ok, margin, canonical = False, None, f"error:{err}"
        else:
            try:
                ok, margin, canonical = self.wl.check(self.ctx, inp, out)
            except Exception as exc:     # a result the checks cannot read fails
                ok, margin, canonical = False, None, f"check error:{type(exc).__name__}"
        self.failed += not ok
        if margin is not None and (self.margin is None or margin < self.margin):
            self.margin = margin
        if self.requests < MIN_REQUESTS:
            self._digest.update(f"{self.requests}:{canonical}\n".encode())
            for key, value in self.wl.counters(inp, out, err).items():
                self.counters[key] = self.counters.get(key, 0) + value
        self.requests += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def measure(wl, ctx, seed: int, seconds: float, tracer=None):
    """Run requests 0, 1, ... until ``seconds`` have passed and at least
    MIN_REQUESTS are done.  Return the Tally, each request's CPU time scaled
    to the reference speed (clock.py) and unscaled, and (tracer snapshot,
    input generation seconds) when request MIN_REQUESTS completes.  With a
    tracer, tracing is on only inside requests."""
    tally = Tally(wl, ctx)
    speed = SpeedTrack()
    stamps, raw, gen_s, window, prev = [], [], 0.0, None, None
    start = time.perf_counter()
    speed.tick(force=True)
    i = 0
    while i < MIN_REQUESTS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        speed.tick()
        g0 = time.perf_counter()
        inp = wl.gen(ctx, seed, i, prev)
        gen_s += time.perf_counter() - g0
        if tracer:
            tracer.request, tracer.active = i, True
        out = err = None
        stamps.append(time.perf_counter())
        t0 = time.process_time()
        try:
            out = wl.run(ctx, inp)
        except Exception as exc:            # a failed request is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        raw.append(time.process_time() - t0)
        if tracer:
            tracer.active = False
        tally.add(inp, out, err)
        prev = (inp, out)
        i += 1
        if i == MIN_REQUESTS:
            window = (tracer.snapshot() if tracer else None, gen_s)
    speed.tick(force=True)
    scaled = [speed.scale(t, cpu) for t, cpu in zip(stamps, raw)]
    return tally, scaled, raw, speed.speed(), window


def latency_metrics(latency) -> dict:
    return {
        "req_per_s": (len(latency) / sum(latency), "1/s"),
        "req_p50_ms": (statistics.median(latency) * 1000, "ms"),
        "req_p90_ms": (statistics.quantiles(latency, n=100)[89] * 1000, "ms"),
    }


def end_to_end(latency, setup_s: float) -> dict:
    return {
        **latency_metrics(latency),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(stats: dict, counters: dict, gen_s: float, import_s: float,
              coeff_s: float, overhead: float) -> dict:
    """Per-layer figures over the digest window (the first MIN_REQUESTS
    requests), so that the counts repeat exactly for a seed."""
    calls, self_s, busy_s, errors = (stats[k] for k in ("calls", "self_s", "busy_s", "errors"))

    def n(layer, *ops):
        if not ops:
            return sum(v for (lay, _), v in calls.items() if lay == layer)
        return sum(calls.get((layer, op), 0) for op in ops)

    candidates = counters.get("relation_candidates", 0)
    return {
        "field.calls": (n("field"), "count"),
        "field.add.calls": (n("field", "add"), "count"),
        "field.mul.calls": (n("field", "mul"), "count"),
        "field.scale.calls": (n("field", "scale"), "count"),
        "field.inv.calls": (n("field", "inv"), "count"),
        "field.trunc.calls": (n("field", "trunc"), "count"),
        "field.digits": (stats["field_digits"], "digits"),
        "field.self_s": (self_s.get("field", 0.0), "s"),
        "field.errors": (errors.get("field", 0), "count"),
        "series.exp.calls": (n("series", "p_exp"), "count"),
        "series.log.calls": (n("series", "p_log"), "count"),
        "series.self_s": (self_s.get("series", 0.0), "s"),
        "series.busy_s": (busy_s.get("series", 0.0), "s"),
        "dual.calls": (n("dual"), "count"),
        "dual.self_s": (self_s.get("dual", 0.0), "s"),
        "tate.coeff_s": (coeff_s, "s"),
        "tate.phi.calls": (n("tate", "phi"), "count"),
        "tate.series_point.calls": (n("tate", "tate_series_point"), "count"),
        "tate.curve_add.calls": (n("tate", "curve_add"), "count"),
        "tate.ode.calls": (n("tate", "verify_ode", "relation_residual"), "count"),
        "tate.self_s": (self_s.get("tate", 0.0), "s"),
        "tate.busy_s": (busy_s.get("tate", 0.0), "s"),
        "tate.errors": (errors.get("tate", 0), "count"),
        "weierstrass.divide.calls": (n("weierstrass", "weierstrass_divide"), "count"),
        "weierstrass.self_s": (self_s.get("weierstrass", 0.0), "s"),
        "balls.same.calls": (n("balls", "same_ball"), "count"),
        "balls.next.calls": (n("balls", "ball_next"), "count"),
        "balls.self_s": (self_s.get("balls", 0.0), "s"),
        "lattice.snf.calls": (n("lattice", "smith_normal_form"), "count"),
        "lattice.rank.calls": (n("lattice", "rank"), "count"),
        "lattice.rotund.calls": (n("lattice", "rotund_check"), "count"),
        "lattice.relation.candidates": (candidates, "count"),
        "lattice.relation.hit_ratio": (counters.get("relation_hits", 0) / candidates
                                       if candidates else 0.0, "ratio"),
        "lattice.self_s": (self_s.get("lattice", 0.0), "s"),
        "lattice.busy_s": (busy_s.get("lattice", 0.0), "s"),
        "parsing.parse.calls": (n("parsing", "parse_element"), "count"),
        "parsing.self_s": (self_s.get("parsing", 0.0), "s"),
        "cli.calls": (n("cli", "main"), "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "setup.import_s": (import_s, "s"),
        "prng.gen_s": (gen_s, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def warm_up(wl, ctx, seed: int) -> None:
    """Requests -WARMUP..-1: first-call costs are paid before timing."""
    prev = None
    for i in range(-WARMUP, 0):
        inp = wl.gen(ctx, seed, i, prev)
        prev = (inp, wl.run(ctx, inp))


def run_untraced(wl, seed: int, seconds: float, setup: tuple):
    setup_s, _, setup_unscaled = setup
    ctx = wl.setup()
    warm_up(wl, ctx, seed)
    tally, latency, raw, speed, _ = measure(wl, ctx, seed, seconds)
    unscaled = {name: value for name, (value, _) in latency_metrics(raw).items()}
    unscaled["setup_s"] = setup_unscaled
    return tally, end_to_end(latency, setup_s), {"speed": speed, "unscaled": unscaled}


def run_traced(wl, seed: int, seconds: float, setup: tuple):
    """Traced loop, then the same requests untraced for as long: the ratio
    of their request times over the requests both completed is the tracing
    overhead, and the digests of their first MIN_REQUESTS must agree."""
    import padic_tate.cli  # noqa: F401  (loaded first, so its namespace is wrapped)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        ctx = wl.setup()
        tracer.active = False
        coeff_s = tracer.busy_s.get("tate", 0.0)    # set-up calls only curve_coefficients there
        warm_up(wl, ctx, seed)
        tracer.reset()
        tally, latency, _, _, window = measure(wl, ctx, seed, seconds, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(HERE / "out" / f"spans-{wl.name}-{seed}.jsonl")
    stats, gen_s = window if window else (tracer.snapshot(), 0.0)
    replay, replay_latency, _, _, _ = measure(wl, ctx, seed, seconds)
    both = min(len(latency), len(replay_latency))
    overhead = sum(latency[:both]) / sum(replay_latency[:both])
    metrics = per_layer(stats, tally.counters, gen_s, setup[1], coeff_s, overhead)
    return tally, metrics, {"untraced_digest": replay.digest}


def run_all(args) -> int:
    """Every workload in its own process, one after another, and a table."""
    rows, ok, attempted, failed = [], True, 0, 0
    merged = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return _fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary = json.loads(next(line for line in lines if line.startswith("summary "))[8:])
        ok &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
        rows.append((name, summary, result["metrics"]))
    print()
    print(f"{'metric':<30}" + "".join(f"{name:>14}" for name, _, _ in rows))
    for metric in rows[0][2]:
        print(f"{metric:<30}" + "".join(f"{_cell(m[metric]['value']):>14}" for _, _, m in rows))
    for key in ("fail_ratio", "margin_digits"):
        print(f"{key:<30}" + "".join(f"{str(s[key]):>14}" for _, s, _ in rows))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def _cell(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _number(x):
    """Fractions from valuations become ints or floats for JSON."""
    if x is None:
        return None
    return int(x) if x == int(x) else float(x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "padic_tate" / "__init__.py").is_file():
        return _fail(f"no program source under {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        return run_all(args)
    try:
        setup = probe_setup(args.workload)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    run_mode = run_traced if args.trace else run_untraced
    tally, metrics, extra = run_mode(wl, args.seed, args.seconds, setup)
    n, failed = tally.requests, tally.failed
    correct = failed == 0 and extra.get("untraced_digest", tally.digest) == tally.digest
    summary = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
               "requests": n, "failed": failed, "fail_ratio": failed / n,
               "margin_digits": _number(tally.margin), "digest": tally.digest, **extra}
    print("summary " + json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:<8} {name:<28} {value:>16.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
