"""Host speed, measured by a fixed reference loop run between the timed calls.

The host's speed drifts by tens of percent over seconds to minutes, and
sectorpoly's time follows it. The reference loop does the same kind of work
as the package (interpreter overhead and numpy calls on arrays of a dozen
elements) but none of its code, so no change to the package changes it.
``HostSpeed`` interleaves reference loops with the timed calls in proportion
to their time. ``scaled()`` rescales a call's time by the reference loops
run near it, to the time it would take on a host where one reference loop
takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The unit of the rescaled times: about one reference loop's time on a quiet
# 2-core x86_64 host (Python 3.11, numpy 2.x, one BLAS thread).
NOMINAL_S = 0.020
SHARE = 0.25      # reference time per second of timed work
WINDOW_S = 1.0    # reference loops this close to a call describe its host speed


def reference_loop() -> None:
    rng = np.random.default_rng(0)
    z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    c = rng.standard_normal(13)
    acc = 0.0
    for _ in range(350):
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1.0)
        acc += float(np.abs(np.polyval(c, z)).sum() + np.abs(1.0 / d).sum())
        for j in range(30):
            acc += (j * 0.5) ** 2 % 7


class HostSpeed:
    def __init__(self) -> None:
        self.ends: list[float] = []       # perf_counter() at each loop's end
        self.samples: list[float] = []    # each loop's duration
        self.ref_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.samples.append(end - start)
        self.ref_s += end - start

    def keep_up(self, work_s: float) -> None:
        """Run reference loops until they have taken SHARE of ``work_s``, the
        timed work so far."""
        while self.ref_s < SHARE * work_s or not self.samples:
            self.sample()

    def factor(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Multiplies a time measured between ``start`` and ``end``. It uses
        the loops that ended within WINDOW_S of that interval, or all loops
        when none did. The mean, not the median, because a call's time is a
        sum over the same period."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return NOMINAL_S / statistics.fmean(near)

    def scaled(self, result) -> float:
        """A call's time at the nominal host speed."""
        return result.seconds * self.factor(result.start, result.start + result.seconds)
