"""Machine-speed samples that make timings comparable on a shared machine.

The 2-core virtual machine this benchmark was tuned on shares its host with
other tenants, whose load changed its speed by a third within minutes.  A
background thread therefore times a fixed 1 ms reference loop every 50 ms
while the workload runs.  A unit's wall time divided by the median sample
taken during it repeats far better than the wall time itself, and times
``REFERENCE_S`` it reads as seconds at the reference speed.
"""
from __future__ import annotations

import bisect
import math
import statistics
import threading
import time

import numpy as np

# About the median of reference_loop_s() on the machine the benchmark was
# tuned on; it only sets the scale of calibrated times.
REFERENCE_S = 1.0e-3
PERIOD_S = 0.05


def reference_loop_s() -> float:
    """Wall time of a fixed loop of float arithmetic, ``math`` calls and
    element access on a small numpy array, the mix tricentre's pure-Python
    paths spend their time on.  It is shorter than the interpreter's 5 ms
    switch interval, so the workload thread never preempts a sample."""
    y = np.array([0.3, 1.2, -0.4, 0.8])
    s = 0.0
    t0 = time.perf_counter()
    for i in range(600):
        a = y[0] * y[1] + math.sqrt(abs(y[2]) + i)
        s += a / (1.0 + y[3] * y[3])
        y[i % 4] = 0.5 * y[(i + 1) % 4] + 0.1
    return time.perf_counter() - t0


class SpeedSampler:
    """Context manager running the reference loop on a background thread."""

    def __init__(self):
        self.times: list[float] = []      # sample midpoints, ascending
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("the speed sampler thread did not stop")

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        d = reference_loop_s()
        self.times.append(t0 + 0.5 * d)
        self.durations.append(d)

    def reference_time(self, t0: float, t1: float) -> float:
        """Median sample taken in [t0, t1], widened to the 3 nearest samples."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        while hi - lo < 3 and (lo > 0 or hi < len(self.times)):
            before = t0 - self.times[lo - 1] if lo > 0 else math.inf
            after = self.times[hi] - t1 if hi < len(self.times) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.durations[lo:hi])

    def calibrated(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, scaled to the reference speed."""
        return REFERENCE_S * (t1 - t0) / self.reference_time(t0, t1)
