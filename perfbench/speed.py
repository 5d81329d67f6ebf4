"""Wall time rescaled to a reference processor speed.

The 2-vCPU virtual machine this benchmark was tuned on shares its host with
other tenants, and its processor speed changes by up to 1.6x from one second
to the next, with no steal time and no sign of it in CPU time.  Averaged
over a 20-second run, that left the wall-clock timing metrics 20-50% apart
between runs of the same code.

So every timed stretch of work is bracketed by a short fixed loop, and its
wall time is rescaled:

    scaled = wall * REFERENCE_S / (mean time of the loop before and after)

The result reads in seconds at the speed where the loop takes REFERENCE_S.
The loop is half interpreter work of the kind probir does (dictionary
lookups, float arithmetic, a keyed sort over a small table) and half integer
arithmetic.  On that machine the first half alone slows down more than
probir does when the host is busy, the second half less; together they
track probir's topics to within about 3% from the fastest to the slowest
third of the topics.  A change to probir's memory use that evicts the
loop's table from cache can make the loop a little slower after a topic;
the printed wall-clock figures show such a shift beside the scaled ones.
"""

from __future__ import annotations

import math
import time

# The loop's time in the fast mode of the machine the baseline was measured
# on (2 vCPUs of an Intel Xeon, Python 3.11).
REFERENCE_S = 0.0012

_TABLE = {f"w{i:03d}": i * 0.5 + 1.0 for i in range(400)}
_KEYS = [f"w{(i * 37) % 400:03d}" for i in range(1200)]
_ARITH = 7500


def _loop() -> tuple:
    acc: dict[str, float] = {}
    total = 0.0
    for key in _KEYS:
        value = _TABLE[key]
        total += value * 1.0001
        acc[key] = acc.get(key, 0.0) + math.log(value)
    ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
    count = 0
    for i in range(_ARITH):
        count += i * i % 7
    return total, ranked[0], count


class ReferenceClock:
    """Runs the reference loop and rescales wall times by it."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Wall time of one run of the reference loop."""
        start = time.perf_counter()
        _loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    @staticmethod
    def scale(wall: float, before: float, after: float) -> float:
        """``wall`` at the reference speed, given the loop's time just
        before and just after it."""
        return wall * REFERENCE_S * 2.0 / (before + after)
