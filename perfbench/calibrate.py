"""Host-speed probe, run as a child process of run.py.

Each line read from standard input times one fixed kernel and answers with
its duration in seconds.  The kernel is pure Python plus small NumPy calls
and touches no BLAS or LAPACK routine, so it starts no BLAS threads and does
not share the program's process or its settings.  Because the host's speed
drifts over minutes by a similar factor for this kernel and for the program,
run.py divides the program's timings by the probe's median to report them at
a fixed reference speed.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np


def kernel() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    a = np.arange(16.0)
    for _ in range(6_000):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


if __name__ == "__main__":
    kernel()  # warm-up
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
