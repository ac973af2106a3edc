"""Host-speed calibration for the benchmark's host-time metrics.

On a shared 2-vCPU Intel Xeon virtual machine the simulator ran up to
1.7x faster or slower from one quarter hour to the next, depending on
what else the host was doing.  A fixed pure-Python loop slows down
by the same factor (peak_poisson's sim_rps over this loop's rate was
0.115 in both a slow and a fast phase), so ``run.py`` times this loop
right before and right after every repetition and reports host times at
the reference host's speed: ``sim_rps`` divided by, and ``setup_s``
multiplied by, ``loop_rate() / REFERENCE_LOOP_RATE``.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: loop_rate() on the reference host: that 2-vCPU Intel Xeon virtual
#: machine (2.0 GHz nominal, CPython 3.11) in an uncontended phase.
REFERENCE_LOOP_RATE = 2.9e6
ITERATIONS = 600_000


def loop_rate() -> float:
    """Iterations per second of a fixed loop of heap and dict operations,
    the interpreter work the simulator's engine and bookkeeping do."""
    heap: list[int] = []
    counts: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    t0 = perf_counter()
    for i in range(ITERATIONS):
        push(heap, (i * 7919) % 1000)
        key = i & 1023
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            pop(heap)
    return ITERATIONS / (perf_counter() - t0)
