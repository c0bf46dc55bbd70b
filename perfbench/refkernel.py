"""Reference kernel and the sampler that times it all through a run.

Every timed call in the benchmark is divided by the time this fixed kernel
takes on the machine at the same moment, so that a slower or faster
processor moves both numbers alike.  The kernel mixes the three kinds of
work the library does: scalar Python float loops (orbits, bisections),
small numpy calls (per-step vector ops) and large numpy arrays (curves,
samples).  Its work is fixed; it never depends on the workload or the seed.

The machine's speed on a shared host flips between a fast and a slow state
every few hundred milliseconds and drifts over minutes.  A kernel timed
only before a call misses what happens during a call of several seconds,
so `SpeedSampler` runs the kernel from a timer signal every `period`
seconds, also while a library call is running (the handler runs between
Python bytecodes of the main thread), and subtracts its own time from the
calls it interrupts.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

_SMALL = np.linspace(0.1, 0.9, 64)
_BIG = np.linspace(0.0, 1.0, 20_000)
# preallocated outputs: a fresh temporary would go through the allocator,
# whose cost depends on the process's history
_BUF = np.empty_like(_BIG)
_SUMS = np.empty_like(_BIG)


def ref_kernel() -> float:
    x = 0.377
    acc = 0.0
    for _ in range(1_000):
        x = x * (1.0 + 2.0 * x ** 0.6) if x < 0.5 else 2.0 * x - 1.0
        acc += math.log(1.0 + x)
    v = _SMALL
    for _ in range(25):
        v = np.clip(np.sqrt(v * 0.999 + 0.001), 0.0, 1.0)
        acc += float(np.max(v))
    np.multiply(_BIG, -3.0, out=_BUF)
    np.exp(_BUF, out=_BUF)
    np.cumsum(_BUF, out=_SUMS)
    return acc + float(_SUMS[-1])


class SpeedSampler:
    """Times `ref_kernel` every `period` seconds while active (a context manager)."""

    MIN_SAMPLES = 3

    def __init__(self, period=0.1):
        self.period = period
        self.stamps = []      # perf_counter at the end of each sample
        self.seconds = []     # kernel CPU seconds of each sample
        self.spent = 0.0      # total CPU seconds spent sampling

    def sample(self, *_):
        # CPU time of this thread: while the library runs its own threads,
        # the kernel's numpy calls release the interpreter lock and its wall
        # time would include their turns; the delay it causes them is its
        # own CPU time as well
        c0 = time.thread_time()
        ref_kernel()
        c1 = time.thread_time()
        self.stamps.append(time.perf_counter())
        self.seconds.append(c1 - c0)
        self.spent += time.thread_time() - c0

    def __enter__(self):
        for _ in range(self.MIN_SAMPLES):
            self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def kernel_seconds(self, t0, t1):
        """Mean kernel time over [t0, t1], with the samples just before t0
        when fewer than MIN_SAMPLES fall inside."""
        j = bisect_right(self.stamps, t1)
        i = min(bisect_left(self.stamps, t0), max(0, j - self.MIN_SAMPLES))
        return statistics.mean(self.seconds[i:j])
