"""Request time scaled to a reference speed of the machine.

The reference machine (see README.md) is shared, and its speed drifts by
phases of seconds to minutes: a fixed pure-Python loop took anywhere from
0.110 to 0.174 s within one minute, with equal wall and CPU time and no
steal time.  So every ``CAL_EVERY_S`` of a run, between requests, the
benchmark times a fixed calibration kernel, and scales each request's CPU
time by ``CAL_REF_S`` over the median time of the ``CAL_NEAREST`` kernel runs
nearest to the request.  A request's scaled time is then the time it would
take on that machine when the kernel takes ``CAL_REF_S``.  The kernel runs
no library code, so a change to the library moves the scaled times by the
same factor as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

CAL_EVERY_S = 0.1
CAL_NEAREST = 7
CAL_REF_S = 0.0028      # the kernel's typical time on the reference machine


def kernel():
    """Fixed work of the library's kinds: interpreter-bound small-integer and
    Fraction arithmetic with small allocations (like the short and tate
    workloads), then products and remainders of 2000-bit integers (like
    hiprec)."""
    acc, x, fr = 0, 3 ** 300, Fraction(1, 3)
    for k in range(1, 400):
        acc = (acc * 31 + x // k) % (1 << 512)
        fr += Fraction(k % 7, 5)
    big, mod = 7 ** 700, 3 ** 1300
    for k in range(60):
        big = big * (big + k) % mod
    return acc, fr, big


class SpeedTrack:
    """Kernel timings along a run, and the scaling they give."""

    def __init__(self):
        self.stamps: list[float] = []     # perf_counter at each kernel run
        self.times: list[float] = []      # its CPU time
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        """Time the kernel if CAL_EVERY_S has passed since it last ran."""
        now = time.perf_counter()
        if now < self._next and not force:
            return
        c0 = time.process_time()
        kernel()
        self.times.append(time.process_time() - c0)
        self.stamps.append(now)
        self._next = now + CAL_EVERY_S

    def scale(self, stamp: float, cpu_s: float) -> float:
        """cpu_s measured at perf_counter time ``stamp``, at reference speed."""
        pos = bisect.bisect_left(self.stamps, stamp)
        lo = max(0, min(pos - CAL_NEAREST // 2, len(self.stamps) - CAL_NEAREST))
        return cpu_s * CAL_REF_S / statistics.median(self.times[lo:lo + CAL_NEAREST])

    def speed(self) -> float:
        """Median kernel time over CAL_REF_S: above 1 when the machine ran slow."""
        return statistics.median(self.times) / CAL_REF_S
