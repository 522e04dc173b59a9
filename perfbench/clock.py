"""Timings in reference seconds: wall time rescaled by the host's current speed.

On a shared host the speed of one core drifts by tens of percent within
seconds.  While the benchmark measures, a timer signal runs a fixed numpy
kernel (nothing from zetalab) every CAL_EVERY_S seconds, in the measuring
thread itself, so samples land inside long calls as well as between short
ones.  A timed interval is then reported as its wall time, minus the kernel
time that fell inside it, times CAL_REF_S over the mean kernel time of the
samples taken within CAL_WINDOW_S of it.  A change to zetalab moves the
scaled times as it moves wall time; a change of host speed moves them much
less.

Measured on a shared 2-vCPU x86_64 virtual machine (where CAL_REF_S comes
from), over 11-second windows of a 90-second run: the medians of one Dirac
operation, of 12 exact tau operations and of 150 Mellin evaluations ranged
over +-18-20% in wall time and over +-7-10% once divided by this kernel's
time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds the kernel takes on that machine when it runs at full speed
# (Python 3.11, numpy 2.4 with OpenBLAS on one thread).
CAL_REF_S = 0.0045
CAL_EVERY_S = 0.5
CAL_WINDOW_S = 1.0
SNAPSHOT_REPS = 3


class Calibration:
    """Kernel timings sampled along one timed stretch (a context manager)."""

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((100, 100))
        self._np = np
        self._rows = np.linspace(0.0, 1.0, 256)
        self._cols = np.linspace(0.0, 30.0, 400)
        self._sym = a + a.T
        self.kernel()  # the first call pays one-time costs and is never sampled
        self.at: list[float] = []
        self.secs: list[float] = []
        self._previous = None

    def kernel(self) -> None:
        """Fixed work: 256 x 400 complex exponentials, one 100 x 100 eigensolve."""
        np = self._np
        np.exp(1j * np.outer(self._rows, self._cols)).sum()
        np.linalg.eigh(self._sym)

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.at.append(t0)
        self.secs.append(time.perf_counter() - t0)

    def __enter__(self) -> "Calibration":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end]."""
        inside = self.secs[bisect.bisect_left(self.at, start):bisect.bisect_right(self.at, end)]
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CAL_WINDOW_S)
        if lo == hi:  # a call that held off the timer: take the nearest samples
            lo, hi = max(lo - 1, 0), hi + 1
        return (end - start - sum(inside)) * CAL_REF_S / statistics.fmean(self.secs[lo:hi])

    def snapshot(self) -> float:
        """Scale factor from a sample taken now (median of SNAPSHOT_REPS)."""
        reps = []
        for _ in range(SNAPSHOT_REPS):
            t0 = time.perf_counter()
            self.kernel()
            reps.append(time.perf_counter() - t0)
        return CAL_REF_S / statistics.median(reps)

    def summary(self) -> dict:
        return {
            "ref_s": CAL_REF_S,
            "samples": len(self.secs),
            "median_s": statistics.median(self.secs),
            "min_s": min(self.secs),
            "max_s": max(self.secs),
        }
