"""Reference seconds: host seconds corrected for the host's speed.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more within seconds: one sim episode of one seed took from
1.45 s to 2.10 s of wall time, with CPU time equal to wall time, so
neither more repeats nor CPU time remove the drift.  :class:`RefClock`
therefore times a fixed pure-Python loop (heap, dict, attribute and
generator work, as in the event kernel) at both ends of every measured
span and converts the span's wall seconds into *reference seconds*:
the time the span would have taken on a host that runs the loop in
:data:`NOMINAL_S`.  A drift that slows the program slows the loop
alike and cancels; a change to the program does not touch the loop.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

__all__ = ["RefClock", "NOMINAL_S", "loop_seconds"]

#: Seconds one :func:`loop_seconds` pass takes on the reference host
#: (the median on the 2-vCPU host the bounds were set on).
NOMINAL_S = 0.0055

#: Loop iterations per pass.
_ITERATIONS = 3000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def weight(self, x: float) -> float:
        return self.value + x


def _gen(n: int):
    total = 0.0
    for i in range(n):
        total += yield i
    return total


def loop_seconds() -> float:
    """Wall seconds of one pass of the reference loop.

    The collector is paused for the pass: a collection would scan the
    program's heap, and the loop is to measure the host, not the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _pass()
    finally:
        if enabled:
            gc.enable()


def _pass() -> float:
    perf = time.perf_counter
    t0 = perf()
    heap: list = []
    table: dict = {}
    gen = _gen(_ITERATIONS + 1)
    next(gen)
    for i in range(_ITERATIONS):
        item = _Item(i, i * 0.5)
        heapq.heappush(heap, (item.weight(1.5), i, item))
        slot = i & 63
        table[slot] = table.get(slot, 0.0) + item.value
        gen.send(item.value)
    while heap:
        heapq.heappop(heap)
    return perf() - t0


class RefClock:
    """Times consecutive spans in reference seconds.

    Each :meth:`lap` returns the span since the previous lap (or since
    construction) scaled by ``NOMINAL_S`` over the median of the loop
    times measured at its two ends and by any :meth:`sample` between.
    The end loops run between spans, so their time is in none of them.
    """

    def __init__(self) -> None:
        loop_seconds()  # warm the loop's code and allocator
        self._loops = [loop_seconds()]
        self._t = time.perf_counter()

    def sample(self) -> None:
        """Time the loop once inside the current span.

        For spans that cannot be cut into laps, such as a running
        event loop; the sample's own time stays in the span.
        """
        self._loops.append(loop_seconds())

    def lap(self) -> tuple[float, float]:
        """``(wall, reference)`` seconds of the span just ended."""
        wall = time.perf_counter() - self._t
        loop = loop_seconds()
        self._loops.append(loop)
        ref = wall * NOMINAL_S / statistics.median(self._loops)
        self._loops = [loop]
        self._t = time.perf_counter()
        return wall, ref
