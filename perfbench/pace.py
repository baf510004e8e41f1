"""Host speed over a run, from a fixed probe timed between ops.

The benchmark shares a few cores of a host with other tenants, and the
speed they leave it changes by up to half within seconds and more over
minutes: the same pure-Python loop ran 1.2 ms in one minute and 1.7 ms a
few minutes later on the 2-core reference VM.  A best-of or median over
one run cannot remove a drift that lasts longer than the run, so the
benchmark reports every op time at the reference speed:

    time at reference speed = measured time * REF_PROBE_S / probe time

where the probe time is the median of the probes run within WINDOW_S of
the op's midpoint.  The probe is a fixed mix of the kinds of work that
bind the library's ops (an interpreter loop, Python calls that build small
objects, small-array NumPy calls, a NumPy chain and a batched LAPACK QR on
a 32 x 16 x 16 stack, and seeding a NumPy generator) and uses nothing from
haarforge, so a change to the library moves the op times but not the
probe.  Memory-bound probes (a copy larger than L2, scattered reads of a
shuffled heap) were tried and left out: their time followed the host's
drift less closely than the ops did.  The probe runs every PROBE_EVERY_S
of wall time, outside the op timing.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# About the probe's median on the 2-core reference VM in a quiet minute.  It
# only sets the scale: every value is the measured one times this constant
# over the probe time measured beside it.
REF_PROBE_S = 3.4e-3
PROBE_EVERY_S = 0.1
WINDOW_S = 1.0


class _Item:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def get(self, c=0):
        return self.a + c


class Pace:
    def __init__(self):
        self._stack = np.random.default_rng(0).standard_normal((32, 16, 16))
        self._small = np.ones((4, 4))
        self.times: list[float] = []    # probe midpoints, perf_counter seconds
        self.seconds: list[float] = []  # probe durations
        self._next = 0.0

    def _work(self):
        s = 0
        for i in range(6_000):
            s += i * i
        for i in range(300):
            s += _Item(a=i, b=s).get(c=i)
        a = self._small
        for _ in range(100):
            np.sqrt(np.dot(a, a)[0]) + np.zeros(4)
        x = self._stack
        for _ in range(3):
            x = np.tanh(x[:, ::-1] @ x[0]) + np.sin(x)
        np.linalg.qr(self._stack)
        for i in range(20):
            np.random.default_rng(i).standard_normal(8)
        return s, x

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)

    def tick(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() >= self._next:
            self.probe()
            self._next = time.perf_counter() + PROBE_EVERY_S

    def local(self, t: float) -> float:
        """Median probe seconds within WINDOW_S of ``t`` (the nearest probe
        when none is that close)."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo < hi:
            return statistics.median(self.seconds[lo:hi])
        near = [j for j in (lo - 1, lo) if 0 <= j < len(self.times)]
        return self.seconds[min(near, key=lambda j: abs(self.times[j] - t))]

    def adjust(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds * REF_PROBE_S / self.local(start + seconds / 2)
