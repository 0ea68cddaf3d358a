"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

Prints one JSON object of CPU times: ``import_s`` is ``import padic_tate``
and ``setup_s`` adds the workload's set-up (field construction, Tate curve
coefficients, the CLI import for ``short``).  Interpreter start-up and the
import of the benchmark's own modules are not counted.  ``kernel_s`` is the
median CPU time of ``KERNEL_RUNS`` runs of the calibration kernel of
clock.py, made right after, by which run.py scales both to the reference
speed.
"""

import json
import sys
import time
from pathlib import Path

KERNEL_RUNS = 15

t0 = time.process_time()
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import padic_tate  # noqa: E402

t1 = time.process_time()
if not Path(padic_tate.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"padic_tate imported from {padic_tate.__file__}, not from {SRC}")
import workloads  # noqa: E402

t2 = time.process_time()
workloads.WORKLOADS[sys.argv[1]].setup()
t3 = time.process_time()
import clock  # noqa: E402

kernel_s = []
for _ in range(KERNEL_RUNS):
    c0 = time.process_time()
    clock.kernel()
    kernel_s.append(time.process_time() - c0)
print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2),
                  "kernel_s": sorted(kernel_s)[KERNEL_RUNS // 2]}))
