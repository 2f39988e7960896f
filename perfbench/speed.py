"""The machine's speed, measured alongside the program.

On a shared host the CPU's speed changes by a third or more, sometimes
within a second and sometimes for minutes, longer than a run.  So the
benchmark times a fixed piece of pure-Python work of its own (the
reference work) while the program runs.  No change to the program moves
that work's time; a slow spell of the machine moves both.  A time divided
by the reference work's mean time over the same stretch, and multiplied by
``REFERENCE_S``, is the time the program would take on a machine where the
reference work takes ``REFERENCE_S``: in those seconds the drift cancels.

The samples are taken from a timer signal every ``INTERVAL_S`` seconds of
wall time, so a five-second command is sampled as densely as a run of
short ones; samples taken only between commands miss the state of the
machine during the long ones.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# The reference work's time on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM
# guest under CPython 3.11, the machine the benchmark's bounds were set on.
REFERENCE_S = 0.0006
INTERVAL_S = 0.05  # during passes: about 1 % of the time goes to samples


def reference() -> float:
    """Seconds taken by the reference work: exact fractions of a few hundred
    bits, string keys, a dict and a sort, the same kind of work as the
    program's."""
    start = perf_counter()
    table = {}
    x = Fraction(1, 3)
    for i in range(1, 40):
        x = (x * x + Fraction(1, i + 2)) / (x + 1)
        if x.denominator.bit_length() > 600:
            x = Fraction(x.numerator % 10**6 + 1, x.denominator % 10**6 + 2)
        table[f"v{i}"] = x
    sorted(table.values())
    return perf_counter() - start


def at_reference(seconds: float, reference_seconds: float) -> float:
    """``seconds`` measured while the reference work took
    ``reference_seconds``, as seconds at the reference speed."""
    return seconds * REFERENCE_S / reference_seconds


class Sampler:
    """While entered, times the reference work every ``interval`` seconds
    from a SIGALRM handler.  ``spent`` is the wall time the samples took,
    to be taken off whatever was timed around them."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that falls inside a sample is dropped
            return
        self._busy = True
        start = perf_counter()
        self.samples.append(reference())
        self.spent += perf_counter() - start
        self._busy = False

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a stretch shorter than the interval
            self.samples.append(reference())

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
