"""Machine-speed sampling, so that timings do not move with a shared host.

A vCPU of a shared host does not run at one speed: for seconds at a time it
runs up to about 1.6 times slower than its best, and two vCPUs of one VM
drift independently of each other.  Minimums and medians over a run do not
remove that when a single job lasts seconds.  So while the benchmark times
jobs, a periodic SIGALRM runs a short fixed kernel of Fraction and integer
arithmetic twice in the main thread (so on the vCPU it runs on) and records
the CPU time of the second run.  The first run only warms the caches that
fieldlab's work evicted; without it the kernel reads slower after jobs that
hand work to threads, and scaling then hides part of their cost.  CPU time,
because a wait for the GIL while fieldlab's worker threads run is not
slowness of the host.  The speed in force at an instant is that of the
latest sample, and a timed interval is reported in nominal seconds: each
piece of it, sampling time left out, scaled by K_NOMINAL_S / (the kernel
time then).

K_NOMINAL_S is the kernel's warm time on a quiet vCPU of the machine the
benchmark was defined on (an Intel Xeon VM at 2.0 GHz, CPython 3.11), so
nominal seconds are close to wall seconds there.  It is a fixed unit, not a
fit: every run of every commit is scaled by the same constant.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

K_NOMINAL_S = 0.00017
PERIOD_S = 0.025

_A = [Fraction(i + 1, 2 * i + 3) for i in range(6)]
_B = [Fraction(3 * i - 5, i + 7) for i in range(6)]


def kernel() -> list[Fraction]:
    """A fixed slice of the arithmetic fieldlab spends its time in."""
    prod = [Fraction(0)] * 11
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            prod[i + j] += x * y
    n = 1
    for k in range(1, 300):
        n = (n * 1103515245 + k) & 0xFFFFFFFFFFFF
    return prod


class SpeedSampler:
    """Context manager: samples the kernel every PERIOD_S seconds of wall time
    in the main thread; scaled() converts an interval to nominal seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.busy_s: list[float] = []    # CPU time of the whole sample
        self.kernel_s: list[float] = []  # CPU time of the timed kernel run

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        t0 = time.thread_time()
        kernel()
        t1 = time.thread_time()
        kernel()
        t2 = time.thread_time()
        self.starts.append(start)
        self.busy_s.append(t2 - t0)
        self.kernel_s.append(t2 - t1)

    def __enter__(self) -> "SpeedSampler":
        self._sample(None, None)  # a speed in force from the start
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Nominal seconds of the interval [t0, t1], sampling time left out."""
        i = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        k = self.kernel_s[i]
        t = t0
        total = 0.0
        for j in range(i + 1, len(self.starts)):
            if self.starts[j] >= t1:
                break
            total += max(self.starts[j] - t, 0.0) / k
            t, k = self.starts[j] + self.busy_s[j], self.kernel_s[j]
        total += max(t1 - t, 0.0) / k
        return total * K_NOMINAL_S
