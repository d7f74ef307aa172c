"""Machine-speed reference for the timed metrics.

On a shared host the speed of one core drifts by tens of per cent within
minutes: on 2 vCPUs of a shared 2.0 GHz Xeon host, refine_float batches
timed in 5 s windows ranged over a factor of 1.6, and a fixed chunk of
interpreter work took 1.0 ms or 2.1 ms depending on the minute.  That
swamps the differences between two versions of the program.  The worker
therefore times a fixed reference chunk every ``EVERY_NS`` of operations,
and the timed metrics of a run are scaled by ``NOMINAL_NS / (mean reference
time of the run)``: they are reported at reference speed, as if the chunk
took exactly 1 ms.  The chunk mixes what the package spends its time on
(calls, small lists, float arithmetic, 2400-bit integer products, Fraction
sums).  The scale is one factor per run; it tracks interpreter-bound work
(float-loop, sampling) closely and big-integer work (deep roots) only in
part.  The chunk is benchmark code, so no change to the package can change
it; the unscaled figures are printed alongside.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_NS = 1_000_000
EVERY_NS = 50_000_000      # a reference sample per 50 ms of operations

_BIG = 3 ** 1500


def _poly(a: float, b: float, n: int) -> float:
    powers = [1.0] * (n + 1)
    for i in range(1, n + 1):
        powers[i] = powers[i - 1] * a
    return powers[n] + b


def reference_ns() -> int:
    """Duration of one reference chunk (about 1 ms on a 2 GHz Xeon)."""
    t0 = time.perf_counter_ns()
    s = 0.0
    acc = 0
    for i in range(150):
        s += _poly(1.0001, s * 1e-9, 5)
        acc ^= (_BIG + i) * (_BIG - i)
    q = Fraction(0)
    for i in range(1, 16):
        q += Fraction(1, i)
    return time.perf_counter_ns() - t0


def factor(refs: list) -> float:
    """Scale from measured time to reference speed, for one run."""
    return NOMINAL_NS * len(refs) / sum(refs)
