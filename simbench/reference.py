"""A fixed pure-Python reference kernel that gauges the host's speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, as neighbours come and go.  Every timed call is
bracketed by two runs of this kernel, and the call's CPU time is
expressed in *reference seconds*: CPU seconds scaled to a host on which
the kernel takes :data:`REFERENCE_S`.  A phase in which the host runs
everything 40% slower then slows the kernel and the call alike, and the
scaled time stays put, while a change to the program moves the call
alone.

The kernel is the benchmark's own code and never changes with the
program.  It does what the simulator's hot loops do: small objects,
dict inserts and deletes, a heap and attribute access.
"""

from __future__ import annotations

import heapq
import random
import time

__all__ = ["REFERENCE_S", "reference_cpu_s", "scaled"]

#: nominal CPU seconds of one kernel run: the unit of a reference second
REFERENCE_S = 0.1
#: kernel size; about 0.1 s on the 2-core Xeon VM used to size the benchmark
STEPS = 45_000


class _Node:
    __slots__ = ("key", "val", "next")

    def __init__(self, key: int, val: int, nxt) -> None:
        self.key = key
        self.val = val
        self.next = nxt


def _kernel() -> int:
    rng = random.Random(12345)
    table = {}
    heap = []
    head = None
    acc = 0
    for i in range(STEPS):
        key = rng.randrange(20_000)
        head = _Node(key, i, head)
        table[key] = head
        heapq.heappush(heap, (rng.random(), key))
        if len(heap) > 5_000:
            _, old = heapq.heappop(heap)
            node = table.pop(old, None)
            if node is not None:
                acc += node.val
    return acc


def reference_cpu_s() -> float:
    """CPU seconds of one kernel run on this host, now."""
    start = time.process_time()
    _kernel()
    return time.process_time() - start


def scaled(cpu_s: float, reference_s: float) -> float:
    """*cpu_s* measured while the kernel took *reference_s*, in
    reference seconds."""
    return cpu_s * REFERENCE_S / reference_s
