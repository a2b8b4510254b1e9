"""Machine-speed reference for the benchmark's timings.

On a small shared machine the processor's speed changes by up to a factor
of two from one moment to the next, and CPU time changes with wall time,
so slow periods move every raw time in a run.  The workloads therefore
time a fixed reference kernel after every operation and report each
operation's time scaled to the reference speed:

    scaled = raw * reference / mean kernel time within the window around it

A mark next to an operation alone says little, because the speed flips
faster than one operation lasts; a mean over every kernel run within
half a second either side tracked in-process operations best on that
machine.  Operations that run in a child process (`pipeline`) are scaled
by a kernel that is itself a child process, run before and after each.

The kernels use no drdetect code, so a change to the program cannot move
them.  Raw times are kept next to the scaled ones in every run record.
"""
from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

# kernel times at the reference speed, close to their times on the 2-vCPU
# machine where the benchmark was defined
REFERENCE_S = 0.005
CHILD_REFERENCE_S = 0.8
MARK_REPEATS = 2
WINDOW_S = 0.5
# wide enough to reach the child kernels run just before and after a call
CHILD_WINDOW_S = 1.5

# A CLI child spends its time importing numpy and scipy, on arrays of 1e6
# samples and in Python loops over small matrices; so does this child.
CHILD_KERNEL = """
import numpy as np, scipy.linalg, scipy.special
x = np.random.default_rng(0).standard_normal((1_000_000, 2))
q = np.einsum("ij,jk,ik->i", x, np.eye(2), x)
top = float(np.sort(q)[-1000])
a = np.full((3, 3), 0.25)
total = 0.0
for i in range(20000):
    total += float((a @ a)[0, 0])
"""


def kernel() -> float:
    """Small-matrix products driven from a Python loop: the same mix of
    interpreter work and numpy dispatch as the solver and step loops."""
    a = np.full((3, 3), 0.25)
    total = 0.0
    for i in range(2000):
        b = a @ a
        total += float(b[0, 0]) + i
    return total


class Speed:
    """Kernel times of every mark of a pass, each at its midpoint.  With
    `child`, a mark runs CHILD_KERNEL in a fresh interpreter instead: the
    in-process kernel does not track the speed a child process sees."""

    def __init__(self, child: bool = False) -> None:
        self.child = child
        self.reference = CHILD_REFERENCE_S if child else REFERENCE_S
        self.window = CHILD_WINDOW_S if child else WINDOW_S
        self.samples: list[float] = []
        self.times: list[float] = []

    def mark(self) -> None:
        for _ in range(1 if self.child else MARK_REPEATS):
            start = time.perf_counter()
            if self.child:
                cmd = [sys.executable, "-c", CHILD_KERNEL]
                subprocess.run(cmd, check=True, timeout=60)
            else:
                kernel()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.times.append(0.5 * (start + end))

    def scale(self, start: float, end: float) -> float:
        """Seconds of the interval [start, end] at the reference speed."""
        lo = bisect.bisect_left(self.times, start - self.window)
        hi = bisect.bisect_right(self.times, end + self.window)
        near = self.samples[lo:hi] or self.samples
        return (end - start) * self.reference / statistics.fmean(near)
