"""The machine's speed, measured next to the requests it slows.

On a shared host the same work can take 1.7 times as long for seconds or
minutes at a time, and process CPU time stretches with it (the core runs
slower, it is not taken away).  So a run times a fixed piece of reference
work every PROBE_EVERY_S of wall time, from a timer signal, so that probes
fall inside long requests too.  A request's time at nominal speed is its
wall time, less the probes inside it, with each stretch between probes
divided by how much slower than nominal the reference work ran around it
(the median of the probes within WINDOW_S).  The result is in seconds, like
the wall time it comes from.

The reference work is the benchmark's own plain Python (Fraction arithmetic,
dict and list indexing, a sort) on a small working set, and runs with the
cyclic collector off, so no change to polarith can make it faster or slower.
Against a mix of polarith requests repeated for five minutes, it took the
spread of 5-second passes from 10% of their mean (wall time) to 3.5%; a
probe that walked a 2.4 MB table got 5.4% and under-corrected fast spells.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.1
WINDOW_S = 0.5
# Median probe time at nominal speed: one core of a 2-vCPU x86-64 container
# (Intel Xeon), Python 3.11.7, at a quiet moment.  It only sets the scale.
NOMINAL_S = 0.003

_TABLE = list(range(0, 2000 * 7919, 7919))


def reference_work():
    x = Fraction(1)
    d = {}
    for i in range(1, 150):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
        d[i % 17] = d.get(i % 17, 0) + x.numerator % 5
    s = 0
    for i in range(6000):
        s += _TABLE[(i * 797) % 2000] & 255
    return d, s, sorted(((i * 7919) % 1009, i) for i in range(1500))


def probe() -> float:
    """Seconds the reference work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: int = 7) -> float:
    """How much slower than nominal the machine runs now (median of probes)."""
    return statistics.median(probe() for _ in range(samples)) / NOMINAL_S


class SpeedLog:
    """Probes taken during a run (start time, duration), and from them the
    time any interval of the run would have taken at nominal speed.  Used
    as a context manager, it probes from a timer signal while open."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, *_) -> None:
        now = time.perf_counter()
        self.took.append(probe())
        self.at.append(now)

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def slowdown(self, start: float, end: float) -> float:
        """Median probe within WINDOW_S of [start, end] over NOMINAL_S; the
        nearest probe on either side always counts."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.at, start) - 1))
        hi = max(hi, min(len(self.at), bisect.bisect_right(self.at, end) + 1))
        return statistics.median(self.took[lo:hi]) / NOMINAL_S

    def nominal(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at nominal speed, the
        probes inside it left out."""
        total = 0.0
        i = bisect.bisect_left(self.at, start)
        while True:
            stop = self.at[i] if i < len(self.at) and self.at[i] < end else end
            if stop > start:
                total += (stop - start) / self.slowdown(start, stop)
            if stop == end:
                return total
            start = max(start, stop + self.took[i])
            i += 1
