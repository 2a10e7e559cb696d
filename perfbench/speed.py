"""The machine's current speed, read from a fixed loop between operations.

Other load on the host slows this process without descheduling it (its
CPU time equals its wall time).  On the development VM (2 vCPUs at 2 GHz)
the same pass of operations flipped between two speeds 1.7x apart, each
held for seconds to minutes, so raw wall times of whole runs differed by
up to 60%.  A reading times a fixed loop of exact-fraction arithmetic and
random lookups in a dict of a few megabytes, which is pure Python and does
not touch superalg, so no change to the library moves it.

The reading loop slows down more than the library does: across runs on
that VM, the wall time of ksdim-search and hc-words passes went as the
reading to the power 0.47 and 0.5.  So the benchmark reports operation
times at the reference speed as an operation's wall time times
(``REFERENCE`` / median of the readings around it) ** ``ELASTICITY``.
Raw wall times are kept next to the scaled ones in the result files.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REFERENCE = 0.0003  # seconds a reading takes at the reference speed
EVERY = 0.1  # seconds of wall time between readings
WINDOW = 3  # an operation's factor uses this many readings on each side
ELASTICITY = 0.5

_TABLE = {(i, i * 7 % 13, i % 101): i for i in range(40000)}
_KEYS = random.Random(0).sample(sorted(_TABLE), 1500)


def reading():
    """Fastest of three runs of the fixed loop."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(i, 7) * Fraction(3, i + 1)
        total = 0
        for key in _KEYS:
            total += _TABLE[key]
        runs.append(time.perf_counter() - t0)
    return min(runs)


class Clock:
    """Readings taken between operations of one run."""

    def __init__(self):
        self.readings = [reading()]
        self._last = time.perf_counter()

    @property
    def index(self):
        """The latest reading; an operation started after it."""
        return len(self.readings) - 1

    def tick(self):
        """Take a reading if the last one is old; call between operations."""
        if time.perf_counter() - self._last >= EVERY:
            self.read()

    def read(self):
        self.readings.append(reading())
        self._last = time.perf_counter()

    def scale(self, k):
        """Factor for an operation that ran between readings k and k + 1."""
        around = self.readings[max(0, k + 1 - WINDOW) : k + 1 + WINDOW]
        return factor(statistics.median(around))


def factor(speed_reading):
    """What a wall time taken at this reading is multiplied by."""
    return (REFERENCE / speed_reading) ** ELASTICITY
