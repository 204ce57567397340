"""Machine-speed probe: report times at a fixed reference speed.

On a shared virtual machine the speed of this process drifts by up to
~1.6x over phases lasting from about a second to minutes, while the
process keeps its CPU (process time equals wall time), so repeating the
work or taking the fastest pass does not remove the drift.  The probe
times a fixed calibration kernel, which does not touch fixmk, every
INTERVAL seconds while the workload runs (from a SIGALRM handler in this
one thread), and each measured interval is rescaled by REFERENCE_TICK
over the median kernel time around it.  A change to fixmk changes the
work, not the kernel, so it shows in full.  The benchmark pins itself to
one core so that the kernel and the work share it.

The kernel is a plain interpreter loop because its time follows the
work's: over repeated passes of one input, log(pass time) against
log(kernel time) has slope 0.95 on check-cube and 0.94 on fip-simplex
(correlation 0.93-0.95).  A kernel of many small numpy calls had slope
0.5-0.6, so dividing by it overcorrected and spread the figures more than
plain seconds did.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.025  # seconds between kernel timings while a probe is active
WINDOW = 0.12  # kernel timings this close to an interval describe its speed
# Kernel time in a fast phase of the machine the baseline figures come from
# (2 vCPU VM, Python 3.11.7), so that reference seconds read close to wall
# seconds there.
REFERENCE_TICK = 1.5e-4


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic in a Python loop."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def tick() -> float:
    """Seconds of one kernel run on warm caches.

    An untimed run first brings the kernel's code and data back into the
    caches, so the timing does not depend on what the workload left there:
    after a 64 MB sweep the timed run is within 0.6% of its time without
    the sweep (median of 300 interleaved pairs), against 4-6% slower for a
    run straight away.
    """
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that times the kernel every INTERVAL seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []  # timed kernel runs
        self.spent: list[float] = []  # whole handler runs, untimed kernel included

    def _on_alarm(self, signum, frame):
        begin = time.perf_counter()
        duration = tick()
        self.starts.append(begin)
        self.durations.append(duration)
        self.spent.append(time.perf_counter() - begin)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def busy_seconds(self, start: float, end: float) -> float:
        """The interval [start, end] without the probe's own time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.spent[lo:hi])

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end] without probe time, at the reference speed."""
        busy = self.busy_seconds(start, end)
        near = self.durations[bisect.bisect_left(self.starts, start - WINDOW):
                              bisect.bisect_left(self.starts, end + WINDOW)]
        if not near:  # the run ended before any timing came due
            raise RuntimeError("no kernel timing near the interval; is the probe active?")
        return busy * REFERENCE_TICK / statistics.median(near)


def reference_wall(fn) -> tuple[float, float]:
    """Run fn once, timing the kernel just before and after: (reference, plain) seconds."""
    before = [tick() for _ in range(20)]
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    after = [tick() for _ in range(20)]
    return elapsed * REFERENCE_TICK / statistics.median(before + after), elapsed
