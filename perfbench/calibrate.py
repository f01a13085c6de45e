"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 40% in phases that last from seconds to minutes, as the neighbours' load
comes and goes; a whole run can sit in a slow phase, so medians within a run
cannot remove it. While the workload runs, a timer signal therefore
interrupts it every ``INTERVAL_S`` and times a fixed reference loop that
uses numpy alone (no objcap code, so no change to the program moves it) and
mixes the same kinds of work as objcap: LSTM-like steps of matrix products
and element-wise ops at batch 32, behind Python-level overhead. (A batch-1
loop, dominated by that overhead, swung more than the program did and
calibrated it less well.)

Time spent sampling is taken out of every time the benchmark measures: its
timed calls and the tracer's spans read ``SpeedLog.clock``, which stops
while a sample runs. Each timed call is then scaled by ``NOMINAL_REF_MS``
over the median reference time sampled within ``WINDOW_S`` of it, so it
reads as it would on a machine where the reference loop takes
``NOMINAL_REF_MS``. A program change moves the timed calls and not the
reference, so it moves the calibrated times in full.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_REF_MS = 0.55   # one reference loop on a 2.1 GHz Xeon vCPU in a fast phase
REPEATS = 7             # reference loops per sample; the sample is their median
INTERVAL_S = 0.2        # wall time between samples
WINDOW_S = 0.5          # samples this close to a timed call calibrate it
MIN_SAMPLES = 3         # else the nearest this many samples do

_rng = np.random.default_rng(20171117)
_W = _rng.normal(scale=0.1, size=(64, 128))
_X = _rng.normal(size=(12, 32, 32))


def _reference_once() -> float:
    """One fixed pass of twelve LSTM-like steps at batch 32; returns its sum."""
    h = np.zeros((32, 32))
    c = np.zeros((32, 32))
    for x in _X:
        z = np.concatenate([x, h], axis=1) @ _W
        i, f, o, g = np.split(z, 4, axis=1)
        c = c / (1.0 + np.exp(-f)) + np.tanh(g) / (1.0 + np.exp(-i))
        h = np.tanh(c) / (1.0 + np.exp(-o))
    return float(h.sum())


def reference_ms() -> float:
    """Median wall milliseconds of ``REPEATS`` reference loops."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference_once()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


class SpeedLog:
    """Reference-loop samples over a run, and the scale they give a timed call."""

    def __init__(self):
        self.times: list[float] = []    # ``clock()`` at each sample, ascending
        self.ref_ms: list[float] = []
        self.paused_s = 0.0             # wall time spent sampling so far

    def clock(self) -> float:
        """``time.perf_counter`` with the time spent sampling taken out."""
        return time.perf_counter() - self.paused_s

    def sample(self) -> None:
        """Time the reference loop now. The collector is held off meanwhile,
        so the program's garbage is collected in the program's time."""
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            ms = reference_ms()
        finally:
            if collecting:
                gc.enable()
        self.times.append(start - self.paused_s)
        self.ref_ms.append(ms)
        self.paused_s += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Sample every ``INTERVAL_S`` of wall time while the body runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, seconds: float) -> float:
        """``NOMINAL_REF_MS`` over the median sample within ``WINDOW_S`` of
        the call (on ``clock``), or over the nearest ``MIN_SAMPLES`` when
        there are fewer."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        near = self.ref_ms[lo:hi]
        if len(near) < MIN_SAMPLES:
            mid = start + seconds / 2
            order = sorted(range(len(self.times)), key=lambda k: abs(self.times[k] - mid))
            near = [self.ref_ms[k] for k in order[:MIN_SAMPLES]]
        return NOMINAL_REF_MS / statistics.median(near)


def summary(speed: SpeedLog) -> dict:
    """The run's reference samples in brief, for the record."""
    ms = speed.ref_ms or [math.nan]
    return {"nominal": NOMINAL_REF_MS, "samples": len(speed.ref_ms),
            "median": statistics.median(ms), "min": min(ms), "max": max(ms)}
