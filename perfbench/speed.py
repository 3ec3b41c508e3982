"""Machine speed, timed with fixed reference work between operations.

On a small virtual machine that shares its host, the same code runs
1.3-2x slower in phases lasting from seconds to minutes. A phase that
covers a whole run moves every statistic of the program's own timings, so
runs of the same code disagree by more than any useful bound. The
benchmark therefore also times a fixed piece of reference work, a Python
loop and small numpy operations like the program's own mix, at operation
boundaries, and scales the program's timings by ``REFERENCE_S`` over the
time-weighted mean reference time. A phase slows the reference work and
the program alike, so the scaled timings hold still where raw ones move.
The reference work uses nothing from parkplan: a change to the program
moves the scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

INTERVAL_S = 0.25  # program time between two reference timings, at least
BURST = 3  # reference works timed back to back at each timing
# reference-work time on an undisturbed 2.1 GHz Xeon vCPU (Python 3.11,
# numpy 2.4); scaled timings are the times the program would take there
REFERENCE_S = 0.6e-3

_rng = np.random.default_rng(0)
_POINTS = _rng.uniform(-20.0, 20.0, size=(600, 2))
_W = _rng.uniform(size=(64, 64))
_X = _rng.uniform(size=(8, 64))


def reference_work() -> float:
    """Seconds for one fixed piece of work, about 1 ms."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(1500):
        acc += math.sqrt(i) * 0.5
        table[i & 63] = acc
    for i in range(12):
        r = np.hypot(_POINTS[:, 0] - i * 0.01, _POINTS[:, 1])
        np.argsort(r, kind="stable")[:64]
        np.tanh(_X @ _W)
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference timings of one process, each weighted by the time since
    the previous one."""

    def __init__(self):
        self.samples: list[float] = []
        self.weights: list[float] = []
        self._since = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        """Time the reference work if ``INTERVAL_S`` has passed (or when
        ``force``); call between operations, outside their timing."""
        elapsed = time.perf_counter() - self._since
        if elapsed < INTERVAL_S and not force:
            return
        self.samples.append(sum(reference_work() for _ in range(BURST)) / BURST)
        self.weights.append(elapsed)
        self._since = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns this process's timings into reference-machine
        timings."""
        mean = sum(s * w for s, w in zip(self.samples, self.weights)) / sum(self.weights)
        return REFERENCE_S / mean
