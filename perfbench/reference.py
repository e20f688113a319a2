"""A fixed reference kernel that measures how fast the host runs right now.

The host is shared: its speed drifts by tens of percent over minutes as
neighbours come and go, and a run of the program alone cannot tell that
drift from a change to the program.  The kernel runs no program code.  It
does the two kinds of work the program's time goes to: interpreter-bound
integer arithmetic and dict/set comprehensions (the shape of the matcher,
the predecoder and the harness), and small numpy operations (the shape of
noise sampling).  A recursive pairing enumeration, the exact matcher's
shape, was tried as a third part and left out: its time swung by up to 2x
from round to round and tracked the program's speed worse than the rest.

Rounds of the kernel are timed between the passes of a run.  ``slowdown``
is the median round over the run against ``NOMINAL_S``, and the run's
times are divided by it, so that they read as on a host on which a round
takes ``NOMINAL_S``.  Medians over the whole run, not pass by pass,
because a round takes ~3 ms and one round's time is noisy.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy

# Median round on the 2-vCPU Xeon the benchmark was defined on.
NOMINAL_S = 2.6e-3

_ARRAY = numpy.arange(4096, dtype=numpy.int64)


def ref_kernel() -> float:
    """Wall time of one fixed round of the reference work."""
    t0 = perf_counter()
    s = 0
    for i in range(12000):
        s += i * i % 7
    for i in range(40):
        d = {j: j ^ i for j in range(64)}
        s += len({v for v in d.values() if v & 1})
    for i in range(150):
        s += int((_ARRAY ^ i).sum() & 1)
    return perf_counter() - t0


def slowdown(rounds: list[float]) -> float:
    """How many times slower than the reference host the kernel ran."""
    return statistics.median(rounds) / NOMINAL_S


def warm_up() -> None:
    """Settle the kernel before anything is timed."""
    for _ in range(5):
        ref_kernel()
