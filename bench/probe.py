"""Machine-speed probe: a fixed piece of work timed between and during requests.

The benchmark's host shares its cores, and its speed drifts by tens of
percent within seconds, for every process alike.  A probe does a fixed
piece of work that touches no sixsphere code, so its time moves with the
machine and never with the program.  Interpreter-bound work (the sweeps)
and numpy-bound work (the degree engine) slow down differently, so each
workload is probed with work of its own kind.  A probe runs before the
first request, after each request, and every INTERVAL_S inside a request
(from a SIGALRM handler, which Python runs between bytecodes).  A request's
time at the reference speed is its own wall time, probes excluded, times
the median of (nominal probe time / probe time) over the probes inside it
and within WINDOW_S of it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.5
WINDOW_S = 1.0

_now = time.perf_counter


def _interpreter_work():
    """Fraction arithmetic, float arithmetic in the interpreter and small
    numpy calls, as the suites do them."""
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    x = 0.0
    for i in range(20000):
        x += (i * 0.5) % 3.0
    a = np.arange(64.0).reshape(8, 8) / 64.0
    b = a.copy()
    for _ in range(200):
        b = np.einsum("ij,jk->ik", a, b)
        b /= np.abs(b).max()
    return acc, x, b


_T = np.zeros((8, 8, 8))
for _i in range(8):
    for _j in range(8):
        _T[_i, _j, _i ^ _j] = 1.0 if (_i * _j) % 3 else -1.0
_X = np.linspace(-1.0, 1.0, 4000).reshape(500, 8)
_A = np.linspace(-1.0, 1.0, 500 * 49).reshape(500, 7, 7) + 4.0 * np.eye(7)
# bound at import, so that a traced run's wrapper of numpy.linalg.solve
# never sees the probe
_solve = np.linalg.solve


def _numpy_work():
    """Batched products through an 8x8x8 tensor, batched 8x8 matrix
    products and batched 7x7 solves, as the degree engine does them."""
    y = _X
    for _ in range(8):
        y = np.einsum("ijk,ni,nj->nk", _T, y, _X)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
    m = np.einsum("ijk,ni->nkj", _T, y)
    for _ in range(4):
        _solve(_A, y[:, :7, None])
        m = m @ m / 8.0
    return y, m


#: kind -> (work, its time in seconds at the reference speed: 2-core
#: x86-64, Python 3.11, numpy 2.4)
PROBES = {"interpreter": (_interpreter_work, 0.01), "numpy": (_numpy_work, 0.01)}


class Sampler:
    """Collects (start, duration) of every probe while active."""

    def __init__(self, kind: str = "interpreter") -> None:
        self._work, self.nominal = PROBES[kind]
        self.samples = []
        self._busy = False
        self._old = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that lands inside a probe is dropped
            return
        self._busy = True
        try:
            t0 = _now()
            self._work()
            self.samples.append((t0, _now() - t0))
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def window(self, start: float, end: float) -> tuple:
        """(scale, probes inside [start, end)) for an interval that has a
        probe right before it and right after it.  The scale is the median
        over the probes from WINDOW_S before the interval to WINDOW_S after
        it, and at least the two that bracket it, since a single probe is
        noisier than the drift it tracks."""
        starts = [s for s, _ in self.samples]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        first = min(lo - 1, bisect.bisect_left(starts, start - WINDOW_S))
        last = max(hi + 1, bisect.bisect_right(starts, end + WINDOW_S))
        scale = statistics.median(self.nominal / d
                                  for _, d in self.samples[max(first, 0):last])
        return scale, self.samples[lo:hi]
