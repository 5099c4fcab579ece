"""Timing that holds still on a core whose speed changes under the benchmark.

The benchmark's vCPUs share physical cores with other tenants.  While the
sibling hardware thread is busy, the same Python and numpy work runs about
1.5-1.9 times slower, in episodes from milliseconds to tens of seconds, so
the median of 1-5 s drives follows how much of a run was slow.  Two pieces
here take that out:

* ``SpeedProbe`` times a fixed piece of work (eleven small numpy calls and
  the Python around them, none of the program's code) three times in about
  0.1 ms.  Its readings are two-valued, fast or slow, and say how fast the
  core runs at that moment.
* ``IncrementClock`` cuts ``drive`` at its increments and reads the probe at
  every cut, so each piece of a few milliseconds is timed next to a reading
  of the core's speed.

A piece's *normalized* time is its wall time times ``REFERENCE_S`` over the
mean of the probe readings on either side: the time it would take on a core
on which the probe takes ``REFERENCE_S``, the probe's uncontended time on
the host that defined the benchmark.
"""
from __future__ import annotations

import functools
import statistics
import time
from typing import NamedTuple

import numpy as np

REFERENCE_S = 2.9e-5  # a probe reading on an uncontended core of the defining host


class Piece(NamedTuple):
    """Wall seconds of a timed piece of work and the mean probe reading around it."""
    seconds: float
    probe: float

    def normalized(self) -> float:
        return self.seconds * REFERENCE_S / self.probe


class SpeedProbe:
    """Reads the current speed of this core as the time of a fixed piece of work."""

    REPEATS = 3  # a reading is the fastest of these, so one interrupt does not count

    def __init__(self):
        self._a = np.arange(36.0).reshape(6, 6) / 36.0
        self._b = np.ones((8, 6, 6))

    def _work(self) -> float:
        x = self._a @ self._a.T
        acc = float(np.abs(np.einsum("ij,kjl->kil", x, self._b)).max())
        for row in self._a[:4]:
            acc += float(np.dot(row, row)) + float(np.sqrt(np.sum(row * row)))
        return acc

    def read(self) -> float:
        clock = time.perf_counter
        best = float("inf")
        for _ in range(self.REPEATS):
            start = clock()
            self._work()
            best = min(best, clock() - start)
        return best


class IncrementClock:
    """Cuts every ``drive`` at its increments while installed.

    It wraps ``solver._advance_with_subdivision``, which ``drive`` calls once
    per increment and looks up at call time.  When an increment returns, the
    wrapper notes the time, reads the probe and notes the time again, so the
    probe's own time is left out of the pieces.  If that function no longer
    exists, nothing is wrapped and a drive is one piece.
    """

    TARGET = "_advance_with_subdivision"

    def __init__(self, solver, probe: SpeedProbe):
        self.solver, self.probe = solver, probe
        self.marks: list[tuple[float, float, float]] = []  # (end, reading, resume)
        self.available = hasattr(solver, self.TARGET)
        self._original = None

    def __enter__(self):
        if self.available:
            original = self._original = getattr(self.solver, self.TARGET)
            marks, read, clock = self.marks, self.probe.read, time.perf_counter

            @functools.wraps(original)
            def marked(*args, **kwargs):
                out = original(*args, **kwargs)
                end = clock()
                reading = read()
                marks.append((end, reading, clock()))
                return out

            setattr(self.solver, self.TARGET, marked)
        return self

    def __exit__(self, *exc):
        if self.available:
            setattr(self.solver, self.TARGET, self._original)

    def pieces(self, start, before, end, after) -> tuple[Piece, ...]:
        """The pieces of the drive that ran from ``start`` to ``end``.

        ``before`` and ``after`` are probe readings taken just before and
        just after it; the marks are those the drive left.
        """
        starts = [start] + [resume for _, _, resume in self.marks]
        ends = [stop for stop, _, _ in self.marks] + [end]
        readings = [before] + [reading for _, reading, _ in self.marks] + [after]
        return tuple(Piece(b - a, 0.5 * (p + q))
                     for a, b, p, q in zip(starts, ends, readings, readings[1:]))


def normalized_median(pieces) -> float:
    return statistics.median(p.normalized() for p in pieces)
