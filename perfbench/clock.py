"""A clock that reads machine-speed-corrected seconds.

The cores of a shared 2-core host change speed: the same pass runs up to 1.7x
slower for stretches of 5 to 30 seconds while other tenants are busy, so raw
wall time of one run spreads by a fifth or more.  CPU time does not help: it
tracks wall time within 3% in those stretches, because the process keeps its
core and the core itself runs slower.  This clock samples the machine's speed
every ``PERIOD_S`` seconds from a ``SIGALRM`` handler that times a fixed
calibration loop, with the garbage collector off so that no collection the
program owes lands in a sample.  ``correct`` scales each stretch of wall time
between two samples by ``REFERENCE_S`` over the median loop time of the
``2 * WINDOW`` samples around it, and leaves the samples' own time out.  When
the loop takes ``REFERENCE_S`` (about its time on an idle 2-core x86-64
virtual machine), the clock reads wall time.

The loop runs the code the toolkit spends its time in (a short SciPy DOP853
integration, a small SVD, Python float arithmetic), so both slow down
alike.  It is benchmark code: no change to the toolkit can make it faster.
"""
from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

PERIOD_S = 0.1
REFERENCE_S = 2.0e-3
WINDOW = 10


_M4 = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.2, 0.1],
                [0.1, 0.2, 1.0, 0.3], [0.0, 0.1, 0.3, 0.5]])


def _duffing(t, y):
    return np.array([y[1], -y[0] - 0.1 * y[0] ** 3])


def calibration_loop():
    res = solve_ivp(_duffing, (0.0, 4.0), np.array([1.0, 0.0]), method="DOP853",
                    rtol=1e-9, atol=1e-9)
    sv = np.linalg.svd(_M4, compute_uv=False)
    x = 0.5
    for _ in range(20):  # Newton on cos(x) = x
        x -= (math.cos(x) - x) / (-math.sin(x) - 1.0)
    return float(res.y[0, -1]) + float(sv[0]) + x


def _sample():
    """(start, end, loop time) of one timed calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return t0, t1, t1 - t0


class SpeedClock:
    """Start it, time intervals with ``time.perf_counter``, and convert them
    with ``correct``.  It must be started and stopped in the main thread,
    where Python runs signal handlers."""

    def __init__(self):
        self.samples = []  # (start, end, loop time) of every sample, in time order
        self._old = None

    def _tick(self, *_):
        self.samples.append(_sample())

    def start(self):
        for _ in range(WINDOW):
            self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def correct(self, t0, t1):
        """Corrected seconds of the ``time.perf_counter`` interval [t0, t1],
        which must start after ``start()``.  Samples taken up to a second
        after ``t1`` sharpen the scale of its end."""
        samples = list(self.samples)
        ends = [e for _, e, _ in samples]
        starts = [s for s, _, _ in samples[1:]] + [math.inf]
        loops = [c for _, _, c in samples]
        total = 0.0
        for j in range(max(bisect.bisect_right(ends, t0) - 1, 0), len(samples)):
            if ends[j] >= t1:
                break
            stretch = min(t1, starts[j]) - max(t0, ends[j])
            if stretch > 0:
                near = loops[max(j - WINDOW + 1, 0):j + WINDOW + 1]
                total += stretch * REFERENCE_S / statistics.median(near)
        return total

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
