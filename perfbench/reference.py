"""A fixed reference loop that gauges how fast the machine runs right now.

On a shared virtual machine the CPU speed available to one process
drifts and steps: on a 2-core Xeon VM the same pass took 20-25% longer
for minutes at a time, which is as wide as the largest regression bound
allowed.  The benchmark therefore times this loop before every measured
operation or pass, for about a tenth of the measured time, and reports,
next to raw seconds, times in reference units: seconds divided by the
loop's mean time over the run.  Both sides
of a comparison are scaled by the same loop, so the machine's state
cancels while a change to hermline still shows in full.

The loop resembles the workloads' inner loops (table-driven products in
a prime field, tuple building, hashing) and imports nothing from
hermline.  Changing it re-bases every reference-unit metric.
"""

from __future__ import annotations

import gc
import time

_P = 251
_ADD = tuple(tuple((a + b) % _P for b in range(_P)) for a in range(_P))
_MUL = tuple(tuple((a * b) % _P for b in range(_P)) for a in range(_P))
_SIZE = 8
_ROUNDS = 60
_REPEATS = 16
SHARE = 0.1


def _kernel() -> int:
    rows = tuple(
        tuple((i * 7 + j * 13) % _P for j in range(_SIZE)) for i in range(_SIZE)
    )
    seen = 0
    for _ in range(_ROUNDS):
        out = []
        for row in rows:
            new = []
            for j in range(_SIZE):
                acc = 0
                for x, other in zip(row, rows):
                    acc = _ADD[acc][_MUL[x][other[j]]]
                new.append(acc)
            out.append(tuple(new))
        rows = tuple(out)
        seen ^= hash(rows)
    return seen


def reference_s() -> float:
    """Seconds for a fixed amount of reference work (about 0.1 s).

    The garbage collector is paused so that the time does not depend on
    the size of the calling process's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_REPEATS):
            _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(refs: list[float], measured_s: float) -> None:
    """Time the loop once, then until it has run for SHARE of measured_s."""
    refs.append(reference_s())
    while sum(refs) < SHARE * measured_s:
        refs.append(reference_s())
