"""Host speed calibration.

On a shared host the same Python code runs 20% faster or slower from one
minute to the next (a fixed 40 ms loop measured 31 to 44 ms as a median over
10-second windows), which swamps the differences the benchmark has to show.
The benchmark therefore runs a fixed calibration unit, a mix of interpreter
work and small NumPy operations like that of qcongest, just before and just
after every timed call, and scales the call's times by ``REFERENCE_S`` over
the unit's mean time around it: times are reported in seconds at the host
speed at which one unit takes ``REFERENCE_S``.  On this host that cut the
pass-to-pass spread of a simple-engine pass from 8% to 3%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median wall time of one unit on the 2-core host of the reference figures.
REFERENCE_S = 0.0115
UNITS = 4


def _unit() -> int:
    acc, table, items = 0, {}, []
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        items.append(acc & 0xFFFF)
    values = np.asarray(items, dtype=np.int64)
    for _ in range(80):
        block = values[:2048]
        acc ^= int(np.maximum.reduce(np.sort(block) + np.arange(block.size)))
        values = np.roll(values, 7)
    return acc + len(table)


def sample() -> tuple[float, float]:
    """Mean (wall, cpu) seconds of one unit over ``UNITS`` back-to-back runs."""
    walls, cpus = [], []
    for _ in range(UNITS):
        c0, t0 = time.process_time(), time.perf_counter()
        _unit()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.fmean(walls), statistics.fmean(cpus)
