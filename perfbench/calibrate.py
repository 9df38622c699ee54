"""Calibrated time: wall time corrected for the machine's speed while it ran.

On a small shared VM the speed of pure-Python code drifts by up to about
1.8x, in phases from a fraction of a second to minutes, with CPU time
equal to wall time.  A reference chunk timed before and after a call
misses drift inside it, and a second process on the other CPU does not
see the same drift.  So the reference is sampled inside the call: an
interval timer raises ``SIGALRM`` every ``interval`` seconds and the
handler runs one fixed reference chunk, on the same thread and CPU as the
measured code, and times it.

The mean speed during the call is the mean of ``1 / chunk`` over the
samples, so the calibrated time is::

    (wall - time spent in chunks) * REF_CHUNK_S / harmonic_mean(chunk times)

It is the time the call would take on a machine where one reference chunk
takes ``REF_CHUNK_S``.  A program that does more work reads longer; a host
that runs slower does not.

Use it as a context manager around the call::

    with Calibrator(0.01) as cal:
        work()
    cal.seconds, cal.wall
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Seconds one reference chunk takes on the machine calibrated times are
# given for: about the fast phase of the 2-vCPU Xeon VM they were first
# measured on.
REF_CHUNK_S = 1.0e-4


def chunk() -> None:
    """The fixed reference work: a short pure-Python Fraction sum."""
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(1, k)


def chunk_seconds() -> float:
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


class Calibrator:
    """Samples the reference chunk every ``interval`` seconds inside a block."""

    def __init__(self, interval: float):
        self.interval = interval
        self.chunks: list[float] = []
        self.wall = 0.0
        self.seconds = 0.0

    def _sample(self, signum, frame) -> None:
        self.chunks.append(chunk_seconds())

    def __enter__(self) -> "Calibrator":
        self.chunks = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        chunks = self.chunks
        if not chunks:  # shorter than one interval: sample just after it
            chunks = [chunk_seconds() for _ in range(3)]
        in_chunks = sum(self.chunks)
        mean_speed = sum(1.0 / c for c in chunks) / len(chunks)
        self.seconds = (self.wall - in_chunks) * REF_CHUNK_S * mean_speed
