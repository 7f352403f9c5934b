"""A clock that counts time at a fixed reference speed of the machine.

The benchmark runs on a few vCPUs of a shared host, where the same
operation can take 50% to 100% longer while neighbours are busy, and the
guest sees no steal time: its CPU time rises with its wall time.  So wall
and CPU seconds measure the host as much as the program.

``RefClock`` times a fixed pure-Python probe (about 0.6 ms on an idle
host) every ``PERIOD`` seconds of wall time, from a ``SIGALRM`` handler
that runs between the bytecodes of whatever the main thread is doing.  The
wall time between two probes is scaled by ``REF_PROBE_S / probe time`` of
the probe that ends it: when the host runs the probe 40% slower, that
stretch of work counts 40% less.  The probes' own time is left out.
``read()`` takes a probe at once and returns the reference seconds counted
since the clock started; the difference of two reads times what lies
between them at reference speed.

The scaling holds for work that slows down like the probe does, which is
interpreted Python; the numpy parts of the program slow down differently,
and a long C call is scaled by the probe taken after it.  Threads other
than the main one compete with the probe for the interpreter lock, so the
clock reads low on multi-threaded work.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.1  # seconds of wall time between probes
# the probe's time on an idle 2-vCPU Xeon VM with the interpreter busy, so
# that a reference second is about a wall second on that machine when idle
REF_PROBE_S = 0.6e-3


def probe() -> int:
    """Fixed interpreted work: dict updates, tuple building, int arithmetic."""
    table = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
        total += len((key, i)) + (i & 3)
    return total


class RefClock:
    def __init__(self, since: float | None = None):
        """Start counting at ``since`` (a ``time.perf_counter()`` value,
        default now); the first probe scales the stretch from there."""
        self.total = 0.0
        self.probes = 0
        self._busy = False
        self._last = time.perf_counter() if since is None else since
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def _tick(self, *_) -> None:
        if self._busy:  # the handler ran inside a probe that read() took
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.total += (start - self._last) * REF_PROBE_S / (end - start)
        self.probes += 1
        self._last = end
        self._busy = False

    def read(self) -> float:
        """Reference seconds counted so far, up to a probe taken now."""
        self._tick()
        return self.total

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
