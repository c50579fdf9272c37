"""Host-speed reference: a fixed task timed between benchmark calls.

The benchmark host is a few vCPUs of a shared machine whose speed drifts by
20-35% for minutes at a time with other tenants' load; process CPU time drifts
the same way, so no clock in the process separates it out.  The reference
task is a fixed mix of what rorc spends its time on (interpreted integer
loops, small numpy row eliminations mod p, exact rational arithmetic), and
it does not touch rorc.  Timed every ``INTERVAL_S`` between calls, it tells
how fast the host ran around each call, and ``normalize`` rescales a call's
wall time to a host on which the task takes ``NOMINAL_S``:

    normalized = wall * NOMINAL_S / median(nearby reference times)

A change to rorc moves normalized times exactly as it moves wall times; a
change in host speed moves the reference with them and cancels out.  The
raw wall times are still reported next to the normalized ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.001      # about what the task takes on the baseline host
INTERVAL_S = 0.1       # sample at most this often (about 1% of the run)
NEAREST = 8            # samples whose median gives the host speed at a moment

_P = 32003
_MAT = np.random.Generator(np.random.PCG64(12345)).integers(0, _P, (12, 12), dtype=np.int64)
_FRACS = [Fraction(k + 1, 2 * k + 3) for k in range(24)]


def task() -> int:
    acc = 0
    for k in range(6000):
        acc = (acc * 31 + k) % 1000003
    m = _MAT.copy()
    for c in range(11):
        m[c + 1:] = (m[c + 1:] * m[c, c] - np.outer(m[c + 1:, c], m[c])) % _P
    total = Fraction(0)
    for f in _FRACS:
        total += f * f - f / 3
    return acc + int(m[-1, -1]) + total.numerator % 7


class Reference:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list[float] = []     # midpoints, increasing
        self.secs: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        task()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.secs.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        """Keep about one sample per ``interval``: after a long call, take
        up to NEAREST // 2 at once, so each call has samples on both sides."""
        due = int((time.perf_counter() - self._last) / self.interval)
        for _ in range(min(due, NEAREST // 2)):
            self.sample()

    def around(self, fn):
        """Run ``fn`` between two sets of samples; returns its result and
        the moment it ran, for ``normalize``."""
        for _ in range(NEAREST // 2):
            self.sample()
        start = time.perf_counter()
        result = fn()
        moment = (start + time.perf_counter()) / 2
        for _ in range(NEAREST // 2):
            self.sample()
        return result, moment

    def speed_at(self, moment: float) -> float:
        """Median reference time of the NEAREST samples around ``moment``."""
        i = bisect.bisect(self.times, moment)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return statistics.median(self.secs[lo:lo + NEAREST])

    def normalize(self, wall: float, moment: float) -> float:
        return wall * NOMINAL_S / self.speed_at(moment)
