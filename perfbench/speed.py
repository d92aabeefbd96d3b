"""Machine-speed probe taken while a pass runs.

The shared 2-core machine where this benchmark was defined ran the same
code 20-30 % faster in some minutes than in others, so raw times of whole
runs spread by about that much across seeds.  `SpeedProbe` times a fixed
exact-rational computation once at the start of a pass, every
`INTERVAL_S` seconds from a timer signal while the pass runs, and once at
the end.  Dividing the engine's time by the median probe time, and
multiplying by the probe time that machine typically showed
(`REFERENCE_S`), gives the time the pass would take at that reference
speed.  The time spent in the probe is subtracted from the item that it
interrupted.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.5
REFERENCE_S = 0.02


def probe_work(n=2500):
    """A fixed mix of Fraction arithmetic and comparisons, the engine's hot path."""
    acc = Fraction(0)
    x = Fraction(3, 7)
    for i in range(1, n):
        acc += Fraction(i % 97 - 48, i % 13 + 1) * x
        if acc > 1000:
            acc -= 1000
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent probing, to subtract from item times
        self._previous = None

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scale(self):
        """Factor from measured seconds to seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
