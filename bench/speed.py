"""Machine-speed probe, so that timings survive a shared host's drift.

On a shared host the same single-threaded iteration can take 30-50% longer
from one minute to the next, with the process on the CPU the whole time:
other tenants slow the core down.  The probe measures that slowdown while
it happens.  An interval timer interrupts the process every PERIOD seconds,
and the signal handler times a fixed pure-Python task (exact rational
arithmetic and dict traffic, like the library's own load, but none of its
code).  The handler runs in the main thread between two bytecodes, so it
samples the same CPU, at the same moment, as the code being measured.  A
timed interval is then scaled by REFERENCE_S / (probe time inside the
interval): the result is the interval's length at the reference speed.  The
probe time is the mean of the fastest three quarters of the probes, since a
probe hit by a preemption or an interrupt reads far slower than the code
around it ran.  A
change to the library moves the interval and not the probe, so it still
shows in full.

The probe takes about 0.5 ms per PERIOD, so it adds about 1% to every
measured interval, the same on every run.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
# Probe task time at the reference speed: about its typical time on the
# 2-vCPU host the benchmark was built on (Python 3.11.7).
REFERENCE_S = 450e-6


def probe_task():
    table = {}
    acc = Fraction(0)
    for i in range(1, 80):
        x = Fraction(i % 13 + 1, i % 11 + 2)
        acc = acc + x * Fraction(3, i % 7 + 1)
        table[i % 17] = (acc, x)
    return table


class SpeedProbe:
    """Timer-driven probe of the main thread's speed; a context manager."""

    def __init__(self):
        self.stamps = []     # end time of each probe
        self.durations = []  # its duration
        self._previous = None

    def _on_alarm(self, signum, frame):
        # a garbage collection of the library's objects must not land here
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_task()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.stamps.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start, end):
        """REFERENCE_S / probe time within [start, end]; with fewer than
        three probes there, the three nearest probes are used."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo < 3:
            if len(self.stamps) < 3:
                return 1.0
            lo = max(0, min(lo, len(self.stamps) - 3))
            hi = lo + 3
        fastest = sorted(self.durations[lo:hi])[:(hi - lo) * 3 // 4]
        return REFERENCE_S / statistics.fmean(fastest)
