"""Host speed sampling for the timed runs.

The benchmark runs on a shared host whose speed swings by a third within
seconds and drifts by as much over minutes; CPU time follows wall time, so
neither can be trusted alone.  While a timed run lasts, a SIGALRM handler
times a fixed pure-Python loop every SAMPLE_PERIOD_S.  An interval's wall
time, less the handler's own time inside it, is then scaled by REF_S over
the median loop time sampled around that interval: the time the interval
would have taken on a host that runs the loop in REF_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The loop's data fits in a core's own caches.  A loop over a working set
# of a few megabytes tracked the host's slow phases better on the widest
# reports, but its own time then depended on how much of the cache dlplab
# had just evicted, so a change to dlplab's memory use would move it.
REF_ITERATIONS = 1500
# The loop's time on the quiet phases of the 2-core host the benchmark was
# written on, so that scaled times read about as wall times did there.
REF_S = 0.0006
SAMPLE_PERIOD_S = 0.05
# Samples within this margin of an interval count for it, so that an item
# shorter than the period still has about ten.
MARGIN_S = 0.25


def reference_loop() -> int:
    """Tuple, dict and frozenset work, like dlplab's enumerators."""
    s = 0
    d: dict = {}
    for i in range(REF_ITERATIONS):
        k = (i & 63, i >> 6)
        d[k] = d.get(k, 0) + 1
        s += len(frozenset((i & 7, i & 3)))
    return s


class HostSpeed:
    """Context manager that samples the loop time while it is open."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy = 0.0
        self._inside = False
        self._old = None

    def _sample(self, signum, frame) -> None:
        if self._inside:
            return
        self._inside = True
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.busy += t1 - t0
        self._inside = False

    def __enter__(self) -> "HostSpeed":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median loop time sampled in [start, end], widened
        by MARGIN_S on each side."""
        lo = bisect.bisect_left(self.at, start - MARGIN_S)
        hi = bisect.bisect_right(self.at, end + MARGIN_S)
        window = self.took[lo:hi] or self.took
        return REF_S / statistics.median(window)

    def median_s(self) -> float:
        return statistics.median(self.took)
