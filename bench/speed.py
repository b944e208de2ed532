"""Wall time at a reference speed, for a host whose speed drifts.

On a shared host the same pure-Python work can run 1.3x to 2x slower for
seconds or minutes at a time (wall time equals CPU time; the vCPU itself is
slower).  `SpeedClock` times the program's work and, every `INTERVAL_S` of
wall time, interrupts it with SIGALRM to time `reference()`, a fixed piece
of pure-Python work written here and sharing no code with ringoid.  Each
stretch of the program's wall time between two samples is scaled by
``REFERENCE_NOMINAL_S / (the reference's duration at the end of the
stretch)``, so a stretch run while the host is slow counts for as much as
it would have taken at the speed at which the reference takes
`REFERENCE_NOMINAL_S`.  The time spent in the reference is left out.

The result is in seconds, a change to the program moves it as it moves wall
time, and the host's drift mostly cancels.  The raw wall time is kept too.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.2
# The reference's duration on a quiet core of the host the README's figures
# come from; it only sets the scale of the reported seconds.
REFERENCE_NOMINAL_S = 0.003

_P = 3
_N = 36
# A fixed dense 36 x 36 matrix over F_3 of rank 35.
_MATRIX = [[(i * _N + j) ** 3 % 101 % _P for j in range(_N)] for i in range(_N)]


def _rref_mod_p() -> int:
    """Row-reduce a copy of `_MATRIX` over F_3 in pure Python; the rank."""
    m = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(_N):
        piv = next((i for i in range(rank, _N) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 if m[rank][c] == 1 else 2
        m[rank] = [x * inv % _P for x in m[rank]]
        pivot_row = m[rank]
        for i in range(_N):
            f = m[i][c]
            if i != rank and f:
                m[i] = [(a - f * b) % _P for a, b in zip(m[i], pivot_row)]
        rank += 1
    return rank


def reference() -> float:
    """Seconds one reference computation takes now, with the cyclic garbage
    collector held off so that it cannot collect the program's heap inside
    the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _rref_mod_p()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    """Run the reference until the interpreter has specialised its code."""
    for _ in range(20):
        reference()


def scaled(raw_s: float, before: list, after: list) -> float:
    """`raw_s` seconds of work done between reference samples `before` and
    `after`, scaled to the nominal speed by their mean."""
    return raw_s * REFERENCE_NOMINAL_S / statistics.mean(before + after)


class SpeedClock:
    """Times laps of the program's work in seconds at the reference speed.

    ``start()`` arms the timer; each ``lap()`` returns the scaled and raw
    seconds since the previous lap (or the start); ``stop()`` disarms it.
    """

    def __init__(self):
        self.samples = []
        self._mark = 0.0
        self._scaled = 0.0
        self._raw = 0.0
        self._busy = False

    def _account(self) -> None:
        """Close the stretch since `_mark` with a reference sample taken now."""
        now = time.perf_counter()
        r = reference()
        self.samples.append(r)
        stretch = now - self._mark
        self._raw += stretch
        self._scaled += stretch * REFERENCE_NOMINAL_S / r
        self._mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._account()
        finally:
            self._busy = False

    def start(self) -> None:
        warm_up()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def lap(self) -> tuple:
        self._busy = True
        try:
            self._account()
            out = (self._scaled, self._raw)
            self._scaled = self._raw = 0.0
            return out
        finally:
            self._busy = False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class RawClock:
    """The same interface without sampling: laps are raw wall seconds.  The
    traced run uses it, so that no reference work lands in a span."""

    samples = ()

    def start(self) -> None:
        self._mark = time.perf_counter()

    def lap(self) -> tuple:
        now = time.perf_counter()
        stretch, self._mark = now - self._mark, now
        return stretch, stretch

    def stop(self) -> None:
        pass
