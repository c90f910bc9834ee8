"""The host-speed reference that the end-to-end times are corrected by.

A shared host changes speed: on the reference host (2 vCPUs) by up to
25% over seconds and by 20-45% between runs minutes apart, with the
processor itself slowing (CPU time moves with wall time; steal is 1-3%).
No statistic of the program's own times can tell that drift from a
change in the program.  So every run also times a fixed piece of work
that is not the program, at moments when the program is idle: before
every sweep cell, and between serve windows once every answer is in.

The reference is numpy work on an array that fits in L2: row-wise
``argsort`` and ``cumsum`` of a 256 x 128 array, ten times (3-4 ms).
It was chosen over four other candidates timed side by side in the same
runs (a pure-Python loop, per-row ``Generator.shuffle``, random gathers
over 2 MB, bulk uint64 arithmetic).  Over ten runs of each workload,
correcting by it cut the spread of ``trials_per_s`` from 0.148 to 0.072
(``sweep_vectorized``), 0.123 to 0.079 (``sweep_mixed``) and 0.084 to
0.056 (``serve_open``); the pure-Python loop did about as well within a
sitting but moved 40% between sittings while the program moved 30%.
Over 61 iterations of ``sweep_vectorized`` the program's window times
moved as this reference's to the power 1.05.

The run's *host-speed factor* is the median of the reference times over
:data:`REFERENCE_S`.  The end-to-end times are divided by it and the
rates multiplied by it, so they read as they would on a host on which
the reference takes :data:`REFERENCE_S`.  A change to the program moves
the program's times and not the reference's, so it still shows in full.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from perfbench import stats

#: The reference's time on the reference host (s), the factor's unit.
#: Fixed for good: results are comparable only under the same value.
REFERENCE_S = 0.004

_ROWS = np.random.default_rng(0).random((256, 128))
_PASSES = 10


def reference() -> float:
    """Seconds one pass of the reference work takes now."""
    start = time.perf_counter()
    for _ in range(_PASSES):
        np.cumsum(np.argsort(_ROWS, axis=1), axis=1)
    return time.perf_counter() - start


class HostSpeed:
    """Reference timings collected over one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, passes: int = 1) -> float:
        """Time ``passes`` passes of the reference; returns the seconds spent."""
        start = time.perf_counter()
        for _ in range(passes):
            self.samples.append(reference())
        return time.perf_counter() - start

    def factor(self) -> float:
        """Median reference time over :data:`REFERENCE_S` (> 1: a slow host)."""
        return stats.median(self.samples) / REFERENCE_S
