#!/usr/bin/env python3
"""Digests of the harness reports, to check that a change keeps them byte-identical.

Usage: python scripts/digests.py

Runs `padic-tate harness --suite all --format structured` of the checkout
this script sits in, in a fresh interpreter per row, for each field
configuration in CONFIGS at seeds 0 and 1, and prints one line per row:
the configuration, the seed, the exit code and the SHA-256 of stdout.
Run it in two checkouts and compare the outputs.  scripts/digests.txt holds
the rows of this tree, which CI diffs against on each supported Python.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIGS = (
    ("--p", "5"),
    ("--p", "2"),
    ("--p", "3", "--ext", "unramified:f=2"),
    ("--p", "5", "--ext", "eisenstein:e=2,c=1"),
    ("--p", "5", "--ext", "eisenstein:e=4,c=-1"),
)
SEEDS = (0, 1)


def row(config, seed: int) -> str:
    """The line of one harness run, made in a child interpreter that imports
    this checkout's src/ and sees no PADIC_TATE_SEED."""
    env = {k: v for k, v in os.environ.items() if k != "PADIC_TATE_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = [sys.executable, "-m", "padic_tate.cli", "harness", "--suite", "all",
            "--format", "structured", *config, "--seed", str(seed)]
    run = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    sha = hashlib.sha256(run.stdout).hexdigest()
    return f"{' '.join(config)}  seed={seed}  exit={run.returncode}  sha256={sha}"


def main() -> int:
    for config in CONFIGS:
        for seed in SEEDS:
            print(row(config, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
