"""Reference kernel: fixed exact arithmetic timed next to every measured operation.

The benchmark was written on a shared 2-vCPU host whose speed switches
between two levels about 2x apart, every few milliseconds to every few
seconds, and whose share of time at each level drifts over minutes.  Raw
wall times of the same operation therefore spread by tens of percent from
run to run, more than any bound a change could be judged by.  The kernel
below uses nothing from ``delayswitch``, so no change to the program
changes its cost.  Its mean time over a stretch of runs right before and
right after an operation measures the speed the host had around the
operation; the stretch is a fixed share of the operation's length, so a
long operation, which lives through many switches, is judged by the mix of
levels around it rather than by the level of one instant.  :func:`scaled`
converts the operation's wall time to the time it takes when the kernel
takes ``NOMINAL_S``, its time at the fast level of that host (Python
3.11.7, CPU time and wall time slow down alike there).
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 1.0e-3  # the kernel's time at the fast level of the reference host
MIN_REPS = 3  # kernel runs per sample, at least
SHARE = 0.1  # a sample lasts about this share of the operation it brackets


def kernel() -> int:
    """Fraction arithmetic with growing integers, hashing and a dict: the
    kinds of work the exact engine does, in a fixed amount."""
    x, seen = Fraction(4, 3), {}
    for i in range(190):
        x = (x * 5 + 3) / 7
        seen[hash((x.numerator & 0xFFFF, i))] = i
    return len(seen)


def sample(near_s: float = 0.0, clock=time.perf_counter) -> float:
    """The kernel's mean wall time per run, in seconds, over MIN_REPS runs
    or about ``SHARE * near_s`` seconds, whichever is longer: ``near_s`` is
    the length of the operation the sample brackets."""
    start = now = clock()
    runs = 0
    while runs < MIN_REPS or now - start < SHARE * near_s:
        kernel()
        runs += 1
        now = clock()
    return (now - start) / runs


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the speed the kernel samples ``before`` and
    ``after`` it show, expressed at the reference host's fast level."""
    return seconds * NOMINAL_S / ((before + after) / 2)
