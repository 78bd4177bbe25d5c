"""A fixed CPU kernel that measures how fast this machine's CPU runs right now.

On shared hosts the speed of the same code drifts by up to 1.7x: each
virtual CPU runs at the speed of the physical core it sits on, the CPUs
of one guest often differ (about 13 ms against 21 ms for this kernel),
and the host moves them now and then (no steal time shows in the guest).
The benchmark therefore pins a workload's processes to one CPU (see
run.py), times this kernel on that CPU next to every timed run, and
scales the run's wall time by NOMINAL_S / kernel seconds, which gives the
run's wall time on a machine where the kernel takes NOMINAL_S.
The kernel mixes interpreter work and small numpy calls, as the program
does, and uses no program code, so a change to the program never moves
it.  Of the kernels tried (each half alone, 8 MB array passes, dict and
sort work), this mix tracked the drift of the workloads' times best.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.020


def _kernel() -> float:
    s = 0.0
    for k in range(60000):  # interpreter work
        s += k * k % 7
    a = np.arange(32.0)
    for k in range(3000):  # small numpy calls
        s += float((a * k).sum())
    return s


def seconds(repeats: int = 3) -> float:
    """Median seconds of the kernel over a few back-to-back repeats."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
