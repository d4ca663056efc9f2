"""Machine-speed probe: expresses measured times at one reference speed.

The shared machines this benchmark runs on switch between speed states
that differ by a factor of 1.5 or more and last from seconds to minutes,
so raw times of identical work spread far wider than the regressions the
benchmark must catch.  The probe is a fixed piece of the benchmark's own
pure-Python graph code (BFS and sign DP on a 60-vertex graph; it does not
use sgpower), timed every EVERY_S between ops, outside the timed region.
A time t measured at moment m is reported as

    t * REFERENCE_S / (median probe time within WINDOW_S of m)

that is, in seconds at the speed where the probe takes REFERENCE_S.
Garbage collection is off while the probe runs, so the size of the
program's heap does not change the probe's time.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

from graphs import Graph, random_edges

REFERENCE_S = 4.0e-4  # the probe on an idle 2-vCPU Intel Xeon VM
EVERY_S = 0.05
WINDOW_S = 0.25
_EDGES = random_edges(random.Random(0), 60, 6, False)


def _once() -> float:
    t = time.perf_counter()
    g = Graph(60, _EDGES)
    for source in range(8):
        g.row(source)
    return time.perf_counter() - t


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self) -> float:
        """Probe now; returns the probe time (best of two)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            d = min(_once(), _once())
        finally:
            if was_enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.probes.append(d)
        return d

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, moment: float) -> float:
        """Factor taking a time measured at `moment` to the reference speed."""
        lo = bisect.bisect_left(self.times, moment - WINDOW_S)
        hi = bisect.bisect_right(self.times, moment + WINDOW_S)
        near = self.probes[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, moment), len(self.times) - 1)
            near = self.probes[i : i + 1]
        return REFERENCE_S / statistics.median(near)
