"""Correction for the machine's speed swings.

The machine this benchmark was built on changes speed by up to 2.5x, for
seconds to minutes at a time, on both cores and whatever runs.  A fixed
loop of the benchmark's own (plain ``fractions.Fraction`` arithmetic, no
program code) is timed next to the work, in the same thread: each sample
says how slow the machine is at that moment.  A measured time t is
reported as t * mean(REFERENCE_S / c) over the samples c taken around
and during it, that is, in seconds at the speed at which the loop takes
REFERENCE_S.  Samples interleaved with the work this way cut the spread of
one operation's time over two minutes from 0.18 to 0.035 (coefficient of
variation of 10-sample medians).

``Sampler`` takes samples inside a process every PERIOD_S seconds from a
timer signal, so a long call is sampled while it runs; the time spent
sampling is left out of the work's time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0093  # the loop's time at the reference speed: its fastest here
PERIOD_S = 0.5
_HALF = Fraction(1, 2)


def calibrate():
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 3000):
        s += Fraction(1, i % 97 + 1) * _HALF
    return time.perf_counter() - t0


def factor(samples):
    """REFERENCE_S / c averaged over the samples (loop times c): work done
    in a stretch of time is proportional to 1 / c."""
    return sum(REFERENCE_S / c for c in samples) / len(samples)


class Sampler:
    """Loop samples every PERIOD_S seconds from SIGALRM while running.

    ``samples`` holds (time, loop seconds); ``paused`` is the total time
    spent sampling, which ``span`` leaves out of the work's time."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self._old = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        c = calibrate()
        self.samples.append((t0, c))
        self.paused += time.perf_counter() - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def mark(self):
        """A point in the work: (time, time spent sampling so far)."""
        return time.perf_counter(), self.paused

    def span(self, start, end):
        """(raw seconds, corrected seconds) of the work between two marks."""
        (t0, p0), (t1, p1) = start, end
        raw = t1 - t0 - (p1 - p0)
        inside = [c for t, c in self.samples if t0 <= t <= t1]
        before = [c for t, c in self.samples if t < t0][-1:]
        after = [c for t, c in self.samples if t > t1][:1]
        return raw, raw * factor(before + inside + after)


class RawClock:
    """The Sampler's interface without samples: plain wall time (traced
    runs, whose spans must not hold samples)."""

    def start(self):
        pass

    def stop(self):
        pass

    def mark(self):
        return time.perf_counter(), 0.0

    def span(self, start, end):
        raw = end[0] - start[0]
        return raw, raw


def clock(correct):
    return Sampler() if correct else RawClock()
