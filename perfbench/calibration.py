"""Correction of timings for the drifting speed of a shared host.

On a host shared with other tenants the speed of a core drifts by a
third or more over tens of seconds, and every timing of a run drifts with
it.  The benchmark therefore interleaves a fixed calibration kernel with
its jobs and scales each job's wall time by how fast the kernel ran
around that job:

    scaled_ms = measured_ms * reference_ms / median(kernel times near the job)

where "near" is from ``WINDOW_S`` seconds before the job started to
``WINDOW_S`` seconds after it ended.  A scaled time reads as the time the
job would have taken on a host where one kernel run takes
``reference_ms``.  No kernel uses ``torsiontraj``, so a change to the
library moves the job times and not the kernel.

Two kernels, one for each kind of job:

* ``in_process``: a fixed piece of pure-Python work (``kernel``), for
  library calls made in the benchmark's own process.  Before each job it
  runs until the calibration time owed, ``SHARE`` times the previous
  job's wall time, is paid, and at least once, so a long job is followed
  by a long burst of samples.
* ``process_start``: a bare interpreter start, ``python -c pass``, once
  before each subprocess.  A fresh process runs on whichever core is
  free and spends much of its time in the operating system starting up;
  its time follows the time of another fresh start, and not that of
  work inside the parent.
"""

import bisect
import statistics
import time
from fractions import Fraction

# Median kernel times on the reference host, a 2-vCPU Intel Xeon at
# 2.1 GHz with Python 3.11.  Any constants would do; these keep scaled
# times close to wall times on that host.
KERNEL_REFERENCE_MS = 1.5
START_REFERENCE_MS = 60.0
WINDOW_S = 0.5
SHARE = 0.2


def kernel():
    """Fixed work of the kinds torsiontraj does: exact rational
    elimination (the 4x4 Hilbert matrix, whose entries grow), integer
    arithmetic in an interpreted loop, and dictionary and list traffic."""
    n = 4
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    total = 0
    for i in range(2000):
        total += (i * i) % 97
    table = {}
    for i in range(1500):
        table[(i * 7919) % 100003] = [i] * 3
    return rows[0][n], total, len(table)


class Calibrator:
    """Kernel samples over time, and the scale factor of any interval."""

    def __init__(self, run_kernel, reference_ms, share, clock=time.perf_counter_ns):
        self.run_kernel = run_kernel
        self.reference_ms = reference_ms
        self.share = share
        self.clock = clock
        self.starts_s = []  # start of each kernel run, ascending
        self.costs_ms = []  # its wall time
        self.owed_ms = 0.0

    def settle(self):
        """Run the kernel until the owed calibration time is paid, at least once."""
        while True:
            start = self.clock()
            self.run_kernel()
            cost = (self.clock() - start) / 1e6
            self.starts_s.append(start / 1e9)
            self.costs_ms.append(cost)
            self.owed_ms -= cost
            if self.owed_ms <= 0:
                self.owed_ms = 0.0
                return

    def timed(self, call):
        """Settle, then run ``call()``; returns (result or exception, start_s, end_s)."""
        self.settle()
        start = self.clock()
        try:
            result = call()
        except Exception as exc:  # the caller decides what a raising job means
            result = exc
        end = self.clock()
        self.owed_ms = self.share * (end - start) / 1e6
        return result, start / 1e9, end / 1e9

    def scale(self, start_s, end_s):
        """reference_ms over the median kernel time near [start_s, end_s]."""
        lo = bisect.bisect_left(self.starts_s, start_s - WINDOW_S)
        hi = bisect.bisect_right(self.starts_s, end_s + WINDOW_S)
        if lo == hi:
            raise ValueError("no calibration sample near the interval")
        return self.reference_ms / statistics.median(self.costs_ms[lo:hi])

    def scaled_ms(self, start_s, end_s):
        return (end_s - start_s) * 1000 * self.scale(start_s, end_s)

    def median_ms(self):
        return statistics.median(self.costs_ms)


def in_process():
    return Calibrator(kernel, KERNEL_REFERENCE_MS, SHARE)


def process_start(start_bare):
    """``start_bare()`` starts ``python -c pass`` and waits for it."""
    return Calibrator(start_bare, START_REFERENCE_MS, 0.0)
