"""The machine's speed during a run, read from a fixed reference loop.

A shared host runs this benchmark at a speed that drifts by a tenth to a
half over seconds to minutes, whatever the code does: on a 2-vCPU VM one
pass of point-queries took from 1.7 to 3.2 s within ten minutes.  Timing
the fixed loop below every INTERVAL_S between the ops of a run and dividing
the run's times by the loop's median time removes most of that drift.  Over
ten 20 s runs on that VM the spread (interquartile range over median) of
``ops_per_s`` fell from 0.091 to 0.014 on point-queries, from 0.23 to 0.084
on oracle-crosscheck and from 0.28 to 0.091 on family-probe; on range-scan,
whose sweeps wait on memory more than the loop does, it helped least.

``run.py`` reports times *at reference speed*: the raw time multiplied by
REFERENCE_S over the loop's median time in the same run.  REFERENCE_S is a
constant, about the loop's median on the VM above under CPython 3.11, so
that there the figures stay close to the raw ones.  The raw figures go into
the run's record.  The loop is the benchmark's own code, and it runs with the
garbage collector off, so that no change to ``zecklab`` (not even a larger
heap for the collector to walk) moves its time.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.001  # seconds; see above
INTERVAL_S = 0.05  # time the loop once for each this much time that passed
BURST = 20  # the most loops timed at once, after a long op
ITERATIONS = 800


def reference_loop() -> int:
    """Fixed pure-Python work, about 1 ms: half arithmetic, half allocation.

    The arithmetic half (small and big integers, a dict and a list) follows
    the machine's core speed, the allocation half (thousands of small tuples
    and lists kept in a dict, then dropped) its memory speed, which moves
    the materialising sweeps of range-scan more.
    """
    total, big, table, row = 0, 3 ** 200, {}, []
    for i in range(ITERATIONS):
        total = (total * 31 + i) % 1000003
        big = (big * 7 + i) % (1 << 400)
        table[i & 63] = total
        row.append(big & 255)
        if len(row) > 32:
            row.clear()
    index = {}
    for i in range(ITERATIONS * 3 // 2):
        key = (i * 7919) % 10007
        index[key] = [(key, i), (i, key + 1)]
    for pairs in index.values():
        total += pairs[0][1] + len(pairs)
    return total + len(table)


class SpeedProbe:
    """Times of the reference loop over one phase of a run."""

    def __init__(self):
        self.times: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        reference_loop()
        ended = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append(ended - started)
        self._last = ended

    def tick(self) -> None:
        """Time the loop once for each INTERVAL_S since it last ran, up to BURST.

        Called between ops, so that the loops cover a run of long ops as
        densely as one of short ops.
        """
        due = int((time.perf_counter() - self._last) / INTERVAL_S)
        for _ in range(min(due, BURST)):
            self.sample()

    def factor(self) -> float:
        """Multiply a raw time of this phase by this to get it at reference speed."""
        return REFERENCE_S / statistics.median(self.times)

    def summary(self) -> dict:
        return {"loops": len(self.times), "median_s": statistics.median(self.times),
                "reference_s": REFERENCE_S}
