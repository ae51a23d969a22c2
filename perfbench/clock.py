"""Reference-speed clock for compute-bound timings.

The shared host this benchmark was built on changes speed by up to 2x within
seconds to minutes, for every kind of code at once.  A fixed calibration
kernel, which shares no code with the program, is timed between operations;
elapsed wall time is scaled by ``CAL_REF_S / kernel time`` so that it reads
as wall time on the reference host at its fast speed.  A change to the
program moves the op time and leaves the kernel alone, so it shows in full;
a change of host speed moves both and largely cancels.

The clock pauses while the kernel runs, so calibration never counts as op
time, even when it runs inside an op (between the attempts of a verifiable
batch).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the reference host (the baseline machine in README.md) in
# its fast state.  A constant: it must not move with the host or the program.
CAL_REF_S = 0.0135
# At most one calibration per this much wall time.
CAL_INTERVAL_S = 0.1
# The rate comes from the median of the last few kernel times.
CAL_WINDOW = 3

_RNG = np.random.default_rng(0)
_STATE = (_RNG.standard_normal(1 << 14) + 0j).reshape((2,) * 14)
_GATE = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_BIG = np.array([int(v) << 30 for v in _RNG.integers(0, 1 << 30, 256)], dtype=object)
_MODULUS = (1 << 41) - 21


def kernel() -> None:
    """The program's three kinds of work in small: 2x2 gates on a 14-qubit
    state, interpreted Python, and object-dtype big-integer arithmetic."""
    for q in range(4):
        np.moveaxis(_STATE, q, -1) @ _GATE
    s = 0
    for i in range(50_000):
        s += i * i
    for _ in range(20):
        (_BIG * _BIG) % _MODULUS


def kernel_time() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reference_scale(samples: int = CAL_WINDOW) -> float:
    """Factor turning wall time just measured into reference-speed time."""
    return CAL_REF_S / statistics.median(kernel_time() for _ in range(samples))


class RefClock:
    """Monotonic clock in reference-speed seconds; plain wall time when not scaled."""

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.kernel_s: list[float] = []
        self._rate = 1.0
        self._elapsed = 0.0
        self._last = self._calibrated = time.perf_counter()
        if scaled:
            self._calibrate()

    def now(self) -> float:
        wall = time.perf_counter()
        self._elapsed += (wall - self._last) * self._rate
        self._last = wall
        if self.scaled and wall - self._calibrated >= CAL_INTERVAL_S:
            self._calibrate()
        return self._elapsed

    def _calibrate(self):
        self.kernel_s.append(kernel_time())
        self._rate = CAL_REF_S / statistics.median(self.kernel_s[-CAL_WINDOW:])
        self._last = self._calibrated = time.perf_counter()
