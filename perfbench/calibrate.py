"""Machine speed index, so that the drift of a shared machine cancels.

On a shared virtual machine the whole CPU drifts by tens of percent, over
seconds as well as minutes, and every piece of code slows together.  A
fixed kernel of a pure-Python loop, a streaming numpy pass and small-matrix
LAPACK calls (the kinds of work the package does) tracks the package's
operations while all of them swing.  A run therefore times a group of ``GROUP`` runs of
this fixed kernel, which uses nothing from chiral_qfim, at most every
``INTERVAL_S`` between operations, and scales each timed interval by the
machine speed around it: ``scaled = measured * REFERENCE_S / local``, where
``local`` is the median kernel time of the last group before the interval
and the first group after it.  The raw values are printed beside the
scaled ones.

The index cannot separate the package from something that slows the
whole process between operations (a thread left spinning, say); such a
change would show as a slower kernel in the printed slowdown.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
GROUP = 3
# kernel time on a 2-vCPU 2.1 GHz Xeon virtual machine in a quiet period
REFERENCE_S = 0.00165

_ARRAY = np.linspace(0.0, 1.0, 20_000)
_SMALL = np.eye(6) + 0.1 * np.arange(36.0).reshape(6, 6)
_SMALL = _SMALL + _SMALL.T


def _kernel() -> float:
    total = 0
    for i in range(10_000):
        total += i * i
    out = _ARRAY
    for _ in range(10):
        out = np.sqrt(out * 0.5 + 0.25)
    for _ in range(60):
        square = _SMALL @ _SMALL
        total += np.linalg.eigvalsh(square)[0] + np.trace(square.conj().T)
    return total + float(out[0])


class SpeedMeter:
    """Kernel groups, as (start, end, kernel seconds), in time order."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.samples = []

    def sample(self) -> None:
        start = time.perf_counter()
        group = []
        for _ in range(GROUP):
            t0 = time.perf_counter()
            _kernel()
            group.append(time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.samples.append(group)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def local_slowdown(self, t0: float, t1: float) -> float:
        """Slowdown (1.0 = reference speed) around the interval [t0, t1],
        from the last group ended by ``t0`` and the first begun after ``t1``."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        near = [self.samples[i] for i in (before, after) if 0 <= i < len(self.samples)]
        if not near:
            return self.slowdown()
        return statistics.median(s for group in near for s in group) / REFERENCE_S

    def slowdown(self) -> float:
        """Slowdown over the whole run."""
        if not self.samples:
            self.sample()
        return statistics.median(s for group in self.samples for s in group) / REFERENCE_S
