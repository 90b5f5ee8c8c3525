"""Host-speed normalization of measured latencies.

The benchmark runs on shared hosts whose CPU speed drifts: the same op
can take 30% longer for seconds at a time and a whole run can be 80%
slower than the next, while the engine's work is unchanged. A fixed
reference computation that shares no code with the engine is timed
between ops; each op's latency is then scaled by how long the reference
took around that moment::

    normalized = latency * REFERENCE_S / local median of reference times

so a normalized latency reads in milliseconds on a host where
:func:`reference_work` takes exactly ``REFERENCE_S``. A change to the
engine moves the latency and not the reference; a slow spell of the host
moves both. Raw latencies are printed beside the normalized ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
import zlib

import numpy as np

#: the reference's duration on the host the normalized times are quoted for
REFERENCE_S = 0.001
#: reference samples on each side of an op that make its local median
NEIGHBOURS = 10


def reference_work() -> int:
    """A fixed computation independent of the engine (dict updates,
    string formatting, sorting, zlib, numpy)."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(str(i))
    top = sorted(counts.items(), key=lambda kv: -kv[1])[0][0]
    crc = zlib.crc32(zlib.compress(bytes(range(256)) * 256, 1))
    return total + top + crc + int(np.arange(8192, dtype=np.float64).sum())


class SpeedProbe:
    """Times :func:`reference_work` at most every ``interval`` seconds."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.times: list[float] = []
        self.durations: list[float] = []
        #: seconds spent in the reference so far (timed phases subtract it)
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, *, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last < self.interval:
            return
        reference_work()
        self._last = time.perf_counter()
        self.times.append(now)
        self.durations.append(self._last - now)
        self.spent += self._last - now

    def between(self, start: float, end: float) -> float:
        """Median reference duration of the samples taken in [start, end]."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        return statistics.median(self.durations[lo:hi])

    def local(self, at: float) -> float:
        """Median reference duration of the samples around time ``at``."""
        i = bisect.bisect_left(self.times, at)
        return statistics.median(self.durations[max(0, i - NEIGHBOURS) : i + NEIGHBOURS])

    def normalize(self, seconds: float, at: float) -> float:
        return seconds * REFERENCE_S / self.local(at)
