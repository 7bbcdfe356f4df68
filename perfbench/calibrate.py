"""A fixed reference kernel that tracks how fast the machine is right now.

On a shared 2-core VM the same solve swings by 30% and more within
minutes, with load from outside the process: one reduced-m5 pass took
between 10.4 s and 16.7 s over six minutes.  The kernel below is timed
in short bursts between solves, and each solve's time is scaled by
`KERNEL_BASELINE_S / kernel time` around it.  Over sets of five to ten
runs that about halved the run-to-run spread of the (5,40,100) workloads'
wall time (reduced-m5: 25% to 17%, 17% to 8%; all-m5: 11% to 4%) and
left the (6,50,100) workloads about where they were.  The kernel mixes
the solver's two kinds of work, an interpreted heapq loop and numpy
sorts, searches, gathers and hash folds, and never calls marketsplit, so
no change to the program moves it.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# A typical burst on the machine the baseline was measured on (2-core Xeon
# VM, Python 3.11, numpy 2.4).  It only fixes the scale of the scaled
# times, and must be the same on both commits of a comparison.
KERNEL_BASELINE_S = 0.050
BURST = 5


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 2**63, size=100_000, dtype=np.uint64)
        self._probes = rng.integers(0, 2**63, size=100_000, dtype=np.uint64)
        self._table = rng.integers(0, 2**40, size=(8192, 6), dtype=np.uint64)
        self._index = rng.integers(0, 8192, size=100_000)

    def kernel(self) -> float:
        """One run of the reference work, in seconds (40-60 ms on a 2-core Xeon VM)."""
        t0 = time.perf_counter()
        heap = [(i * 7919) % 10007 for i in range(5000)]
        heapq.heapify(heap)
        for _ in range(30000):
            heapq.heappush(heap, heapq.heappop(heap) + 3)
        order = np.argsort(self._keys, kind="stable")
        np.searchsorted(self._keys[order], self._probes)
        for start in range(0, len(self._index), 25_000):
            part = self._index[start : start + 25_000]
            rows = self._table[part] + self._table[part[::-1]]
            h = np.full(len(rows), 0xCBF29CE484222325, dtype=np.uint64)
            for j in range(rows.shape[1]):
                h = (h ^ rows[:, j]) * np.uint64(0x100000001B3)
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a time measured between two bursts to the
        baseline machine speed."""
        return KERNEL_BASELINE_S * 2 / (before + after)

    def burst(self) -> float:
        """Fastest of a few kernel runs: the machine's current speed.

        The minimum varies about half as much between adjacent bursts as
        the median does.
        """
        return min(self.kernel() for _ in range(BURST))
