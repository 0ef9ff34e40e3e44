"""Host-speed reference for the timed run.

On a shared host the same computation runs tens of percent faster or slower
from one second, or one minute, to the next: the host's other tenants and
its clock change under the benchmark.  Raw wall-clock times of two runs of
identical code then differ by more than any regression bound worth having.

So while a timed run is in progress, a timer signal every ``EVERY_S``
interrupts it and times a fixed reference computation: a small dense
Hermitian eigensolve, a tall-matrix SVD, a pass over an 8 MB array and a
pure-Python complex-arithmetic loop, the kinds of work opspectra does.  Time spent in the handler is taken out of the
operation it interrupted.  Each operation's time is then multiplied by
``NOMINAL_S`` over the mean reference time sampled while it ran (or, for an
operation shorter than the interval, around it): the result is seconds at a
nominal host speed, at which the reference takes ``NOMINAL_S``.  Raw seconds
are reported beside scaled ones.  Python runs the handler between bytecodes,
so it never interrupts a LAPACK call; it runs when the call returns.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

NOMINAL_S = 0.005    # typical reference time on a 2-vCPU x86-64 VM, OpenBLAS, 1 thread
EVERY_S = 0.1


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self._matrix = a + a.conj().T
        self._tall = rng.normal(size=(160, 128)) + 1j * rng.normal(size=(160, 128))
        self._stream = rng.normal(size=1 << 19) + 1j * rng.normal(size=1 << 19)
        self._values = tuple(complex(i, -i) for i in range(48))
        for _ in range(3):
            self._once()

    def _once(self):
        started = time.perf_counter()
        np.linalg.eigvalsh(self._matrix)
        np.linalg.svd(self._tall, compute_uv=False)
        np.vdot(self._stream, self._stream)     # no temporary: peak RSS stays put
        acc = {}
        for i in range(2500):
            z = self._values[i % 48] * (0.5 - 0.25j)
            acc[i % 31] = acc.get(i % 31, 0j) + z
        return time.perf_counter() - started

    def sample(self):
        """Reference seconds now: the faster of two runs, so a single
        interruption does not count as a slow host."""
        return min(self._once(), self._once())


class HostSpeed:
    """Samples the reference on a timer while active (a context manager)."""

    def __init__(self, reference):
        self.reference = reference
        self.stamps, self.samples = [], []
        self.stolen = 0.0            # seconds spent in the handler so far
        self._previous = None

    def _handler(self, signum, frame):
        started = time.perf_counter()
        value = self.reference.sample()
        ended = time.perf_counter()
        self.stamps.append(ended)
        self.samples.append(value)
        self.stolen += ended - started

    def __enter__(self):
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)
        return False

    def scale(self, started, ended, seconds):
        """Nominal-speed seconds for an operation that ran from ``started``
        to ``ended`` (perf_counter stamps) and took ``seconds`` itself."""
        lo = bisect.bisect_left(self.stamps, started)
        hi = bisect.bisect_right(self.stamps, ended)
        inside = self.samples[lo:hi]
        if not inside:                          # shorter than the interval
            inside = self.samples[max(lo - 1, 0):hi + 1]
        return seconds * NOMINAL_S / (sum(inside) / len(inside))
