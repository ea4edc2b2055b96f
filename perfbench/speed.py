"""Rescaling timings to a reference machine speed.

The two-core machine this benchmark was written on alternates between
speeds up to 1.5x apart, in spells of a few to tens of seconds, as
neighbours load the host; CPU time tracks wall time, so the scheduler is not
the cause. A 20 s run can fall wholly inside one kind of spell, and ten runs
of one workload read up to 38 % apart in raw images/s. So every timed
interval is rescaled by how fast the machine ran during it.

A fixed reference kernel (benchmark code, never the program's) is timed
twice just before and twice just after the interval and, through SIGALRM,
every INTERVAL_S inside it. The kernel runs twice per sample and only the
second pass is timed, so the sample measures the machine, not how much of
the kernel the workload evicted from the caches. The rescaled duration is
raw * REFERENCE_S / (median sample). The kernel's time is taken out of the
interval it interrupts.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The kernel's timed pass at full speed on the reference machine (2 vCPUs
# of a 2.1 GHz Xeon); a rescaled interval is what it would have taken there.
REFERENCE_S = 1.8e-4


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.random((32, 32))
        self._vec = rng.random(2048)
        self._img = rng.random((3, 48, 48))
        self._row = rng.integers(0, 256, size=96, dtype=np.uint8)
        self.samples: list[float] = []
        self._stolen = 0.0

    def _body(self) -> None:
        # a little of what the workloads do: interpreted loops, numpy
        # scalars, many small numpy calls, small matrix products and
        # image-sized elementwise work
        acc = 0
        for i in range(1000):
            acc += i * i
        row = self._row.copy()
        for x in range(3, len(row)):
            row[x] = (int(row[x]) + int(row[x - 3])) & 0xFF
        for _ in range(8):
            self._mat @ self._mat
        np.sort(self._vec)
        for _ in range(4):
            np.clip(np.exp(-self._img) * 0.5 + self._img, 0.0, 1.0)

    def _sample(self) -> None:
        self._body()
        t0 = time.perf_counter()
        self._body()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self._stolen += time.perf_counter() - t0

    def timed(self, fn) -> tuple[float, float]:
        """Run fn(). Returns (raw seconds, seconds rescaled to the reference
        speed), both without the probe's own time. Exceptions from fn
        propagate."""
        first = len(self.samples)
        self._sample()
        self._sample()
        self._stolen = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = t1 - t0 - self._stolen
        self._sample()
        self._sample()
        return raw, raw * REFERENCE_S / statistics.median(self.samples[first:])
