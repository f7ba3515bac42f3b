"""Machine-speed probe: a fixed reference kernel timed next to the measured work.

The benchmark's host is a shared VM whose speed drifts by up to about 1.5x,
in spells from under a second to several minutes; CPU time drifts with wall
time, and no hardware counters are exposed.  So the benchmark times a fixed
reference ``kernel`` next to the work it measures: interpreted loops and
numpy calls on short vectors, like the solver's own, that depend on nothing
in ``knotopt``.  A time ``t`` measured while the kernel took ``p`` is reported
as ``t * PROBE_REF_S / p``: seconds at the speed at which the kernel takes
``PROBE_REF_S``.  A change to ``knotopt`` moves these numbers exactly as it
moves raw seconds; a change of machine speed mostly cancels.

A set-up has a full kernel run just before and just after it.  A cell of a pass is timed by
``SpeedMeter``: full kernel runs before and after it, and, because speed
changes within a second, a tenth of the kernel every ``TICK_S`` while the
cell runs, from a timer signal; the time those take is left out of the cell.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: about the kernel's fastest time on the machine the committed baseline
#: was measured on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6)
PROBE_REF_S = 0.010
#: rounds of the kernel in a full probe and in one in-cell tick
PROBE_ROUNDS = 100
TICK_ROUNDS = 10
#: wall time between in-cell ticks
TICK_S = 0.1

_XS = np.linspace(0.0, 1.0, 64)
_VALUES = [((7 * i) % 23) - 11.0 for i in range(160)]


def kernel(rounds: int = PROBE_ROUNDS) -> float:
    """The reference work: isotonic pooling in Python and numpy calls on
    short vectors, in about equal parts.

    On the host above, the solver's objective calls slowed in step with
    both parts, while numpy on arrays of thousands of elements slowed
    about 0.6 times as much, so the kernel has none of that.
    """
    acc = 0.0
    for _ in range(rounds):
        for _ in range(10):
            ys = np.exp(-_XS)
            acc += float(np.cumsum(ys)[-1] - ys @ _XS)
        sums: list[float] = []
        counts: list[int] = []
        for v in _VALUES:
            sums.append(v)
            counts.append(1)
            while len(sums) > 1 and sums[-2] * counts[-1] > sums[-1] * counts[-2]:
                s, c = sums.pop(), counts.pop()
                sums[-1] += s
                counts[-1] += c
        acc += sums[-1] / counts[-1]
    return acc


def probe() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Stopwatch:
    """Times stretches of work with no speed probe, as in a traced pass."""

    overhead = 0.0

    def start(self):
        return time.perf_counter()

    def stop(self, token) -> tuple[float, float]:
        """Seconds since ``start``, and the mean probe time (none here)."""
        return time.perf_counter() - token, float("nan")


class SpeedMeter(Stopwatch):
    """Times stretches of work together with the kernel around and inside them.

    ``overhead`` sums the time spent in the kernel, so that a caller can take
    it out of a wall time that spans several stretches.
    """

    def __init__(self):
        self.ticks: list[float] = []   # in-cell ticks, in full-probe seconds
        self.busy = 0.0                # time spent in ticks
        self.before = probe()
        self.overhead = self.before

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel(TICK_ROUNDS)
        elapsed = time.perf_counter() - start
        self.ticks.append(elapsed * PROBE_ROUNDS / TICK_ROUNDS)
        self.busy += elapsed

    def start(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        token = (len(self.ticks), self.busy, previous, time.perf_counter())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return token

    def stop(self, token) -> tuple[float, float]:
        """Seconds of work since ``start`` (ticks left out), and the mean
        probe time: the full probes before and after and the ticks between."""
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        first, busy, previous, start = token
        signal.signal(signal.SIGALRM, previous)
        after = probe()
        probes = [self.before, *self.ticks[first:], after]
        self.before = after
        self.overhead += after + self.busy - busy
        return end - start - (self.busy - busy), statistics.fmean(probes)
