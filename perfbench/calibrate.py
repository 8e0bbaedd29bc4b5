"""Host-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host. On such a host the
same code can run 1.5x faster in one minute than in the next, with no
steal time to show for it, so the wall times of two runs of the same
code differ by more than any useful bound. The benchmark therefore
times a fixed probe on the CPU that runs the program, between the
program's operations, and reports every timing in *reference* time::

    reference = wall * PROBE_REF_S / probe

where ``probe`` is the median of the probes taken nearest the timing.
A reference second is a second of the host while it runs the probe in
``PROBE_REF_S``. A change to the program moves its reference times as
much as its wall times, since the probe does not run program code; a
change in the host's speed moves the probe with the program and
cancels. The raw wall times are printed beside the reference ones.

The probe mixes the two kinds of work the program does: a pure-Python
binary-heap Dijkstra (dicts, lists, ``heapq``) and scipy's C Dijkstra,
over one fixed road-like graph that does not depend on any input.
"""

from __future__ import annotations

import bisect
import heapq
import os
import statistics
import time
from typing import List, Optional, Tuple

import numpy as np

#: Probe time of the host at reference speed. It is about the median
#: probe time on a shared 2-core Intel Xeon VM, so reference times
#: there read close to wall times.
PROBE_REF_S = 0.0075

#: Probes per timing: the median of this many, nearest in time.
WINDOW = 9

PROBE_VERTICES = 1_200
PROBE_DEGREE = 4
PROBE_C_SOURCES = 6


def program_cpu() -> int:
    """The CPU the program and the probe share."""
    return max(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Pin the calling thread, and the threads and processes it starts
    from now on, to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


class HostClock:
    """Probe samples of one run and the reference-time scale they give."""

    def __init__(self) -> None:
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(20231)
        n = PROBE_VERTICES
        heads = np.repeat(np.arange(n), PROBE_DEGREE)
        # A ring keeps the graph connected; the other edges are random.
        tails = np.where(
            np.arange(n * PROBE_DEGREE) % PROBE_DEGREE == 0,
            (heads + 1) % n,
            rng.integers(0, n, n * PROBE_DEGREE),
        )
        weights = rng.uniform(0.1, 1.0, n * PROBE_DEGREE)
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in zip(heads.tolist(), tails.tolist(), weights.tolist()):
            self._adj[u].append((v, w))
            self._adj[v].append((u, w))
        self._matrix = csr_matrix((weights, (heads, tails)), shape=(n, n))
        self.samples: List[Tuple[float, float]] = []  # (mid time, seconds)
        for _ in range(3):  # warm caches and scipy's first-call path
            self._run()

    def _run(self) -> float:
        from scipy.sparse.csgraph import dijkstra

        start = time.perf_counter()
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        adj = self._adj
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        dijkstra(self._matrix, directed=False, indices=list(range(PROBE_C_SOURCES)))
        return time.perf_counter() - start

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            sec = self._run()
            self.samples.append((start + sec / 2.0, sec))

    def factor(self, at: float) -> float:
        """Reference seconds per wall second at perf-counter time ``at``."""
        samples = self.samples  # in time order: probes run one at a time
        if not samples:
            return 1.0
        i = bisect.bisect(samples, (at, float("inf")))
        lo = max(0, min(i - WINDOW // 2, len(samples) - WINDOW))
        window = [sec for _at, sec in samples[lo:lo + WINDOW]]
        return PROBE_REF_S / statistics.median(window)


def scale(clock: Optional[HostClock], at: float, seconds: float) -> float:
    """``seconds`` of wall time at ``at`` in reference seconds."""
    return seconds if clock is None else seconds * clock.factor(at)
