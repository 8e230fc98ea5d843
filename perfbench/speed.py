"""Machine speed, measured by a fixed numpy kernel run at short intervals.

The machine the benchmark was tuned on is shared with other loads, which
change the speed of the same code by up to 70 % within minutes and by tens
of percent within seconds: one cold ``projected_solve`` took between 101 and
173 ms across sixteen 20 s runs, while its time divided by this kernel's
time, measured just before it, stayed between 1.84 and 2.00.

So the benchmark runs the kernel about every ``INTERVAL_S`` seconds, from
inside the operations (the probe calls ``tick`` on each graph volume
evaluation) and between them, and keeps a clock that stops while the kernel
runs.  Each unit of work's clock time is divided by the median kernel time
over the unit and reported in seconds on a machine where the kernel takes
``REFERENCE_S``.  The kernel uses numpy only and none of hslag, so a change
to hslag moves the operations' times and not the scale.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

REFERENCE_S = 0.035  # the kernel's median time on the two-core machine the bounds were set on
INTERVAL_S = 0.3

# Batched 4x4 symmetric eigenproblems and an FFT on a 24 x 24 grid, the sizes
# of the benchmark's metric evaluations, and a loop of small matrix products
# for the interpreter overhead that dominates hslag's many small calls.
_BATCH = np.random.default_rng(0).standard_normal((576, 4, 4))
_SMALL = np.random.default_rng(1).standard_normal((4, 4))


def _kernel() -> float:
    total = 0.0
    for _ in range(10):
        sym = _BATCH @ _BATCH.transpose(0, 2, 1)
        w, v = np.linalg.eigh(sym)
        flow = np.einsum("nij,nj,nkj->nik", v, np.exp(-0.01 * w), v)
        total += float(np.abs(np.fft.fft2(flow[:, 0, 0].reshape(24, 24))).sum())
        m = _SMALL
        for _ in range(200):
            m = 0.5 * (m @ _SMALL) / np.linalg.norm(m)
        total += float(m[0, 0])
    return total


class Speed:
    """Kernel samples, the clock that excludes them, and the scaling they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._spent = 0.0  # kernel time so far
        self._next = 0.0
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._spent += end - start
        self._next = end + INTERVAL_S

    def tick(self) -> None:
        """Sample when the interval has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def clock(self) -> float:
        """Wall time in seconds, less the time spent in the kernel."""
        return time.perf_counter() - self._spent

    def mark(self) -> int:
        """Index of the latest sample: pass it to `rescale` after the unit of work."""
        return len(self.samples) - 1

    def rescale(self, times: List[float], since: int) -> List[float]:
        """Reference times of clock times measured since sample `since`; takes a
        sample after them."""
        self.sample()
        factor = REFERENCE_S / statistics.median(self.samples[since:])
        return [t * factor for t in times]

    def relative(self) -> float:
        """The machine's speed during the run, relative to the reference."""
        return REFERENCE_S / statistics.median(self.samples)
