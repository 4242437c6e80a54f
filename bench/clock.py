"""A clock in reference seconds, for timing on a host whose speed drifts.

The shared virtual machines the benchmark runs on change speed by up to
about 2x within seconds and over minutes: a fixed piece of pure-Python work
(the yardstick) takes from 0.7 to 1.4 ms between the 5th and 95th
percentiles of thousands of samples in one run.  Pass times of the library
follow it: the quartiles of ten runs' median raw pass times lay up to 31% of
their median apart.

While a `SpeedClock` is entered, a ``SIGALRM`` timer runs the yardstick every
`SAMPLE_INTERVAL_S` of wall time, in the one thread the benchmark has.
`SpeedClock.now` advances by the wall time outside the yardstick, each
stretch scaled by ``YARDSTICK_REF_S / t``, where ``t`` is the yardstick's time
at the start of the stretch: a reference second is the time in which the
host runs the yardstick ``1 / YARDSTICK_REF_S`` times.  Over 5-6 minutes of
repeats, the rescaled time of one invocation of more than a second varied by
1.6-3.4% (coefficient of variation) where its raw wall time varied by 14-15%;
a yardstick that walks a few megabytes of objects tracked the library less
well.  The yardstick is benchmark code, so a change to the library moves
the reading and not the scale.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# yardstick time that defines the reference speed: the yardstick's median
# (1.2 ms) on the 2-vCPU KVM guest, Intel Xeon, Python 3.11.7, on which the
# baseline in baseline.json was recorded
YARDSTICK_REF_S = 0.0012
# about 1% of wall time goes to the yardstick at this interval
SAMPLE_INTERVAL_S = 0.1


def yardstick() -> float:
    """Seconds the host takes now for a fixed piece of pure-Python work.

    The work resembles the library's: Fraction arithmetic and stores into a
    tuple-keyed dict.  The collector is off while it runs, so the size of
    the library's heap does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(i, i + 1) * Fraction(3, i + 7)
        table = {}
        for i in range(1200):
            table[(i, i & 7)] = i * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Reads reference seconds; samples the host's speed while entered."""

    def __init__(self):
        self.samples: list = []
        # (reading at mark, perf_counter at mark, reference seconds per wall second);
        # replaced as one object so that `now` can tell a tick happened
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous_handler = None

    def now(self) -> float:
        while True:
            state = self._state
            wall = time.perf_counter()
            if self._state is state:   # no tick between the two reads
                reading, mark, scale = state
                return reading + (wall - mark) * scale

    def tick(self, signum=None, frame=None) -> None:
        """Close the running stretch, time the yardstick and start a new stretch."""
        reading, mark, scale = self._state
        start = time.perf_counter()
        took = yardstick()
        self.samples.append(took)
        self._state = (reading + (start - mark) * scale, time.perf_counter(),
                       YARDSTICK_REF_S / took)

    def __enter__(self) -> SpeedClock:
        self.tick()
        self._previous_handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
