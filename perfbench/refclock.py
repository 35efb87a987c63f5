"""Reference clock: wall time corrected for the speed of a shared host.

On a shared host the same work can take 1.3-2x longer from one minute to the
next, and CPU time grows with wall time, so the cause is the host, not steal or
waiting.  The benchmark's loops call RefClock.sample() after every timed call:
it runs a fixed kernel and records the CPU time the kernel took
(time.thread_time, so waiting for the GIL does not count).  Afterwards
RefClock.duration(a, b) converts a wall interval into reference seconds: each
part of the interval is scaled by REFERENCE_KERNEL_S / (median kernel time
within SMOOTH_S of it), which is the time the interval would have taken on a
host where the kernel takes REFERENCE_KERNEL_S.  The kernel runs in the thread
that runs the program, because a gauge in a thread of its own tracked the
host's speed much less closely.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 0.0004  # the kernel's CPU time on the 2-core host the bounds were set on
SMOOTH_S = 0.1
BURST = 5  # samples taken at once outside the timed loops


def kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls, like the
    program's hot paths; returns its CPU seconds."""
    t0 = time.thread_time()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    a = np.arange(64.0)
    for _ in range(40):
        a = np.cumsum(a[::-1]) % 97.0
    return time.thread_time() - t0


class RefClock:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # wall start, wall end, kernel CPU s
        self._times: list[float] = []
        self._rate: list[float] = []
        self._cum: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Gauge the host now.  Safe to call from several threads."""
        for _ in range(count):
            t0 = time.perf_counter()
            cpu = kernel()
            self.samples.append((t0, time.perf_counter(), cpu))

    def stop(self) -> None:
        """Build the conversion from the samples; call once, after the last."""
        self.samples.sort()
        times = [t for t, _, _ in self.samples]
        cpus = [c for _, _, c in self.samples]
        lo = hi = 0
        for t in times:
            while times[lo] < t - SMOOTH_S:
                lo += 1
            while hi < len(times) and times[hi] <= t + SMOOTH_S:
                hi += 1
            self._rate.append(REFERENCE_KERNEL_S / statistics.median(cpus[lo:hi]))
        self._times = times
        self._cum = [0.0]
        for i in range(1, len(times)):
            rate = (self._rate[i - 1] + self._rate[i]) / 2
            self._cum.append(self._cum[-1] + (times[i] - times[i - 1]) * rate)

    def _elapsed(self, t: float) -> float:
        """Reference seconds from the first sample to wall time t; between two
        samples the rate is the mean of theirs."""
        times, rate = self._times, self._rate
        i = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 2)
        r = (rate[i] + rate[i + 1]) / 2
        return self._cum[i] + (t - times[i]) * r

    def duration(self, start: float, end: float) -> float:
        return self._elapsed(end) - self._elapsed(start)

    def gauge_time(self, start: float, end: float, duration=None) -> float:
        """Time spent in the gauge itself between start and end, measured by
        duration (default: in reference seconds)."""
        duration = duration or self.duration
        return sum(duration(a, b) for a, b, _ in self.samples if start <= a and b <= end)

    def speed(self, start: float = -math.inf, end: float = math.inf) -> float:
        """The host's speed relative to the reference (1.0 = reference), from the
        median of the samples taken between wall times start and end."""
        return REFERENCE_KERNEL_S / statistics.median(c for a, _, c in self.samples if start <= a <= end)
