"""A fixed calibration kernel that rescales host times to a nominal speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes: a pass of grid-scaling took 2.0 s in one run and
3.3 s in a run a minute later, with every pass of each run fast or slow
alike.  No median within one run removes that.  Every interpreter-bound
workload slows together, though, so the benchmark times this kernel
beside the work it measures and reports host times in *reference
seconds*: measured seconds x ``NOMINAL_S`` / kernel seconds.  On a
machine where the kernel takes ``NOMINAL_S``, reference seconds are host
seconds.

The kernel is pure Python and uses no code of the repository, so a change
to the simulator moves the measured seconds and leaves the kernel alone.
Its mix (small slotted objects, dicts with tuple keys, a heap, a set, a
linked list walk) mirrors what the simulator's hot paths do.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

#: kernel seconds that define one reference second (the kernel's time on
#: the 2-core Xeon VM the benchmark was defined on, Python 3.11)
NOMINAL_S = 0.1
_ITERATIONS = 40_000


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = next_node


def kernel(iterations: int = _ITERATIONS) -> int:
    """The calibration work; returns a checksum so nothing is optimised out."""
    table: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int]] = []
    seen: set[int] = set()
    head = None
    total = 0
    for i in range(iterations):
        key = (i * 7919) % 10007
        head = _Node(key, i, head)
        slot = (key, i & 7)
        table[slot] = table.get(slot, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
        if key in seen:
            seen.discard(key)
        else:
            seen.add(key)
    while head is not None:
        total += head.value
        head = head.next
    return total + len(table) + len(seen)


def kernel_seconds(repeats: int = 1) -> float:
    """Median host seconds of ``repeats`` kernel runs, each after a gc."""
    times = []
    for _ in range(repeats):
        gc.collect()
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    return statistics.median(times)
