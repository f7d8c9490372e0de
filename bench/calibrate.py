"""Machine-speed calibration for the end-to-end latencies.

On a 2-core Xeon shared with other tenants, the same fixed work took
anywhere from 0.12 s to 0.17 s from one tenth of a second to the next, and
one workload's median request moved by a third between 4-second windows.
Wall and CPU time moved together, so the process was slowed, not descheduled.

A fixed reference kernel, run between requests, slows down with it.  Each
request's time is divided by the median time of the kernel slices run right
after it, which gives its latency in slices ("cal").  Over 4-second windows
that ratio moved about a third as much as the raw time.  The kernel is part
of the benchmark and does not change with the program, so a faster program
still reads as fewer slices.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# seconds of calibration per second of request time
SHARE = 0.15
# request time after which a calibration block runs
INTERVAL = 0.1
MIN_SLICES = 3


def python_slice() -> dict:
    """About 4 ms of interpreter work: small-int gcds, as exact arithmetic
    does, and a product of two dicts keyed by exponent tuples, as the
    analytic fields do."""
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + math.gcd(i, 360)) % 1000003
    poly = {(i, j, 0, acc % 2): complex(i + 1, j) for i in range(6) for j in range(6)}
    for _ in range(2):
        out: dict = {}
        for ka, va in poly.items():
            for kb, vb in poly.items():
                k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
                out[k] = out.get(k, 0j) + va * vb
    return out


_BLADE_TABLE = tuple(tuple((i ^ j, 1 if bin(i & j).count("1") % 2 == 0 else -1)
                           for j in range(16)) for i in range(16))
_SMALL = np.eye(4) + 0.1


def float_slice() -> list:
    """About 4 ms of interpreter work on complex floats, as the float backend
    does: a 16x16 signed-table product of coefficient lists, and small numpy
    linear algebra, as plane-wave amplitudes need."""
    a = [complex(0.1 * i, -0.05 * i) for i in range(16)]
    for _ in range(40):
        out = [0j] * 16
        for i, ai in enumerate(a):
            row = _BLADE_TABLE[i]
            for j, aj in enumerate(a):
                mask, sign = row[j]
                p = ai * aj
                out[mask] = out[mask] + p if sign > 0 else out[mask] - p
        a = [x * 0.5 for x in out]
    for _ in range(60):
        np.linalg.svd(_SMALL)
    return a


class NumpySlice:
    """A shift and the 16x16 blade-matrix contraction over an n^4 field, as
    the grid's stencils do for each offset."""

    def __init__(self, n: int):
        rng = np.random.default_rng(0)
        self.mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.field = np.ones((16, n, n, n, n), dtype=complex)
        self.repeats = max(1, 4096 * 3 // n ** 4)

    def __call__(self):
        for _ in range(self.repeats):
            out = np.einsum("ij,j...->i...", self.mat, np.roll(self.field, 1, axis=1))
        return out


class Clock:
    """Turns step durations into calibrated ones.

    `step(seconds)` records one step: a short request, or one phase of a long
    one (a suite of a verify pass, a phase of a lattice request).  Once INTERVAL seconds of steps have accumulated, a block of
    kernel slices runs, lasting SHARE of that time and at least MIN_SLICES
    slices, and every pending step is divided by the block's median slice.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.values: list[float] = []
        self.slices: list[float] = []
        self.spent = 0.0
        self._pending: list[int] = []
        self._since = 0.0

    def step(self, seconds: float) -> None:
        self._pending.append(len(self.values))
        self.values.append(seconds)
        self._since += seconds
        if self._since >= INTERVAL:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        start = time.perf_counter()
        block = []
        while len(block) < MIN_SLICES or sum(block) < SHARE * self._since:
            t = time.perf_counter()
            self.kernel()
            block.append(time.perf_counter() - t)
        unit = statistics.median(block)
        for i in self._pending:
            self.values[i] /= unit
        self.slices.extend(block)
        self._pending = []
        self._since = 0.0
        self.spent += time.perf_counter() - start
