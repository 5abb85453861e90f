"""Timed intervals scaled to a reference host speed.

On a host that shares its cores with other machines, the speed of one
core changes by up to 1.8x from one second to the next, and a timed
operation takes the speed of the stretch it happened to run in.  The
``Speedometer`` measures that speed from inside the process: every
``PERIOD`` seconds a timer signal runs a fixed pure-Python loop (the
benchmark's own code, never the program's) and records when it ran and
how long it took.  ``seconds(start, end)`` is the interval's wall time,
less the ticks that ran inside it, multiplied by the reference tick time
over the median tick time around the interval: the time the interval
would have taken at the reference speed.  Both the loop and the
program's operations run in the interpreter, so they slow down together;
README.md gives the spreads measured with and without the scaling.

``WallClock`` has the same interface and returns plain wall time; the
traced run uses it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.01
# ticks this far either side of an interval also count for its speed,
# so that an interval shorter than PERIOD still has a dozen or more
WINDOW = 0.1
LOOP = 500
# about the loop's median time on a 2-vCPU Intel Xeon KVM guest under
# Python 3.11, where it ranged from 28 to 46 us; any constant would do,
# it only sets the scale of the reported times
REFERENCE_TICK_S = 35e-6


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class WallClock:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def seconds(self, start: float, end: float) -> float:
        return end - start


class Speedometer:
    """Context manager: ticks from entry to exit, read with seconds()."""

    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._in_tick = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame) -> None:
        if self._in_tick:  # a late signal inside a tick: skip it
            return
        self._in_tick = True
        start = time.perf_counter()
        _loop()
        self._durations.append(time.perf_counter() - start)
        self._starts.append(start)
        self._in_tick = False

    @property
    def ticks(self) -> int:
        return len(self._starts)

    def factor(self, start: float, end: float) -> float:
        """Median tick time around [start, end] over the reference."""
        lo = bisect.bisect_left(self._starts, start - WINDOW)
        hi = bisect.bisect_right(self._starts, end + WINDOW)
        if hi - lo < 3:
            raise RuntimeError(f"perfbench: {hi - lo} speed ticks around a {end - start:.3f} s interval")
        return statistics.median(self._durations[lo:hi]) / REFERENCE_TICK_S

    def seconds(self, start: float, end: float) -> float:
        i = bisect.bisect_left(self._starts, start)
        j = bisect.bisect_left(self._starts, end)
        ticking = sum(self._durations[i:j])
        return (end - start - ticking) / self.factor(start, end)
