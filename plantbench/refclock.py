"""Reference-speed time: wall time scaled by the machine's current speed.

On a shared VM the speed of the same code drifts by tens of percent,
with no steal time to show for it: process CPU time drifts with wall
time.  The drift has a fast part, which averages out over an op, and a
slow part, which holds for seconds to minutes and moves whole runs.  So
every timed op and set-up is bracketed by two probes of a fixed
pure-Python kernel, and its wall time is scaled by ``REFERENCE_S`` over
the mean probe of the items around it, which follows the slow part.
The result is what the op would have taken with the machine in its fast
state: a change in the plant moves it, a change in the machine's speed
mostly does not.  The kernel never touches the plant, so it cannot hide
a change there.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

#: The kernel's wall time on the reference machine (2-vCPU x86-64 VM,
#: CPython 3.11) in its fast state; it reads 10-12 ms there, and up to
#: 20 ms while the machine is slowed down.
REFERENCE_S = 0.0120

#: A wall time is scaled by the mean probe of the items up to this many
#: places before and after it.
WINDOW = 2

#: Dijkstra runs per probe: about 12 ms at the reference speed.
_SOURCES = 8


def _graph(n: int = 400, degree: int = 6) -> Dict[int, Dict[int, float]]:
    rng = random.Random(7)
    adj: Dict[int, Dict[int, float]] = {u: {} for u in range(n)}
    for u in range(n):
        for _ in range(degree):
            v = rng.randrange(n)
            if v != u:
                adj[u][v] = adj[v][u] = rng.random()
    return adj


class RefClock:
    """Probes the machine's speed and scales wall times by it."""

    def __init__(self) -> None:
        self._adj = _graph()
        #: Every probe's wall time, in seconds.
        self.probes: List[float] = []

    def probe(self) -> float:
        """Run the kernel (heap-based shortest paths, like the plant's)."""
        adj = self._adj
        start = perf_counter()
        for source in range(_SOURCES):
            dist = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u].items():
                    nd = d + w
                    if nd < dist.get(v, float("inf")):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        took = perf_counter() - start
        self.probes.append(took)
        return took

    @staticmethod
    def scale(walls: Sequence[float],
              probes: Sequence[Tuple[float, float]]) -> List[float]:
        """``walls`` at the reference speed; ``probes[i]`` are the probes
        taken just before and after item ``i``."""
        scaled = []
        for i, wall in enumerate(walls):
            near = probes[max(0, i - WINDOW):i + WINDOW + 1]
            mean = sum(a + b for a, b in near) / (2 * len(near))
            scaled.append(wall * REFERENCE_S / mean)
        return scaled
