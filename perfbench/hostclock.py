"""Host-speed correction for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to 1.8x in phases of seconds to minutes, in CPU time as in wall time.
A 25-second run spreads by 20% from that alone, more than any bound a
benchmark could usefully set.  So the run times a fixed reference
computation (pure-Python ``Fraction`` and dict work, like the program's
own, and independent of it) between operations, and scales every
measured time by how fast the host ran the reference around it:

    reported = measured * REFERENCE_S / (reference time measured nearby)

A reported time is therefore the time the operation would take on a
host that runs the reference in ``REFERENCE_S`` seconds.
``REFERENCE_S`` is the reference's median time on the 2-vCPU x86_64 VM
(Python 3.11.7) where the bounds were set, so reported times are close to
that VM's wall times.  A change to the program moves the reported times
as much as the measured ones; the raw times and the speed factor are
kept in the run's record.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# median time of one reference() call on the calibration VM
REFERENCE_S = 0.0032
# how often to sample the host's speed between operations, and how far
# around an operation samples count towards its correction
SAMPLE_EVERY_S = 0.25
NEAR_S = 1.0


def reference():
    """Fixed work, the same every call: small ``Fraction`` arithmetic and
    dict stores, like the program's own inner loops, about 3 ms."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 500):
        x = Fraction(i % 13 + 1, i % 7 + 2)
        acc += x * x - x
        table[(i % 50, i % 3)] = acc
    return acc, len(table)


_EXPECTED = reference()


class HostClock:
    """Samples of the reference's time, and the correction they give."""

    def __init__(self):
        self.times = []  # midpoints of the samples, increasing
        self.durations = []

    def sample(self):
        t0 = perf_counter()
        if reference() != _EXPECTED:
            raise AssertionError("reference computation changed its result")
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def maybe_sample(self):
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start, elapsed):
        """REFERENCE_S over the median reference time near the interval
        ``[start, start + elapsed]``: the samples within ``NEAR_S`` of it,
        and always the last one before and the first one after it."""
        end = start + elapsed
        lo = bisect.bisect_left(self.times, start - NEAR_S)
        hi = bisect.bisect_right(self.times, end + NEAR_S)
        before = bisect.bisect_left(self.times, start) - 1
        after = bisect.bisect_right(self.times, end)
        lo = max(0, min(lo, before))
        hi = min(len(self.times), max(hi, after + 1))
        near = self.durations[lo:hi]
        if not near:
            raise AssertionError("no reference sample near a timed interval")
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start, elapsed):
        """``elapsed`` seconds, measured from ``start``, corrected for the
        host's speed."""
        return elapsed * self.factor(start, elapsed)

    def speed(self):
        """Median reference time over REFERENCE_S: above 1 on a slow host."""
        return statistics.median(self.durations) / REFERENCE_S
