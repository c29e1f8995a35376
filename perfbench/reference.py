"""Wall time converted to seconds at a fixed machine speed.

The benchmark's host is a shared virtual machine whose speed swings by up
to 1.8x, in bursts of a fraction of a second up to minutes: the same solve,
and equally a fixed standard-library loop, took 0.58-1.04 s back to back,
with no CPU time stolen by the hypervisor (measured on a 2-vCPU Xeon
virtual machine without hardware counters).  A ``Probe`` therefore times a
short fixed reference loop just before a call, every ``PERIOD_S`` while the
call runs (from a ``SIGALRM`` handler) and just after it.  The mean of
those loop times is how slow the machine ran during the call, and
``Probe.scaled`` is the call's own wall time in seconds at the speed at
which the loop takes ``REFERENCE_S``.

The loop uses only the standard library -- ``Fraction`` arithmetic, dict
and list traffic, the operations the solvers spend their time on -- so no
change to the program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The loop's time on this host at its usual fast speed; any constant works,
# this one keeps scaled times close to wall times.
REFERENCE_S = 0.00065
ROUNDS = 90
PERIOD_S = 0.02


def work() -> Fraction:
    total = Fraction(0)
    table: dict[int, Fraction] = {}
    order: list[int] = []
    for i in range(ROUNDS):
        total = (total + Fraction(i + 1, i + 2) * Fraction(2 * i + 3, 3 * i + 5)) / 2
        if total.denominator.bit_length() > 256:
            total = Fraction(total.numerator >> 200, (total.denominator >> 200) or 1)
        table[i % 31] = total
        order.append(i % 17)
        if len(order) > 32:
            order.sort()
            del order[:16]
    return total + sum(table.values())


def measure() -> float:
    """Wall seconds of one run of the reference loop."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class Probe:
    """Context manager that times the block it wraps and samples the
    reference loop around and during it.  Not reentrant."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall = 0.0
        self._in_handler = 0.0
        self._start = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(measure())
        self._in_handler += time.perf_counter() - start

    def __enter__(self) -> "Probe":
        self.samples = [measure()]
        self._in_handler = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = elapsed - self._in_handler
        self.samples.append(measure())

    @property
    def scaled(self) -> float:
        """The block's own wall time in seconds at the reference speed."""
        return self.wall * REFERENCE_S / statistics.fmean(self.samples)
