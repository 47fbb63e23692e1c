"""The reference kernel: the unit ("ref") in which the benchmark reports time.

The CPU speed of the small shared machines this benchmark runs on drifts by
up to a factor of two within seconds, so raw seconds of two runs of the same
code do not compare.  Every timed operation is bracketed by a reading of
this kernel and divided by the mean of the two readings; the drift then
cancels to first order.

The kernel is pure standard library, of the same kind of work the program
does (exact `Fraction` arithmetic, tuples of rationals, tuple-keyed dicts),
and it never imports the program.  It must never change: a changed kernel
rescales every figure ever recorded.  `time_reference` refuses to run if the
kernel's result is not the recorded one.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds one kernel run took, as a median, on the machine where the
# benchmark was defined (2-vCPU Xeon VM, Python 3.11).  It converts reference
# units to nominal seconds for the metrics whose unit is seconds, and it is
# as fixed as the kernel.
NOMINAL_SECONDS = 0.075

_STEP = (1, -1, 0, 2, 1, -2, 0, 1)
_EXPECTED = (1001, Fraction(4001829, 1600), Fraction(-247, 60))


def reference_kernel():
    table = {}
    half = Fraction(1, 2)
    vec = (Fraction(0),) * 8
    for i in range(2000):
        w = Fraction(i % 9 - 4, i % 5 + 1)
        key = (i % 7, i % 11, i % 13)
        old = table.get(key)
        table[key] = w if old is None else old * half - w
        vec = tuple(x + w * c for x, c in zip(vec, _STEP))
    total = sum((v * v for v in table.values() if v), Fraction(0))
    return len(table), total, vec[0]


def time_reference() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    result = reference_kernel()
    elapsed = time.perf_counter() - t0
    if result != _EXPECTED:
        raise RuntimeError(f"reference kernel changed: {result!r}")
    return elapsed
