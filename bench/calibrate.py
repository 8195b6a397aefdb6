"""Host-speed calibration for the freeflow benchmark.

The benchmark's host is a small VM on a shared machine whose speed
drifts by tens of percent over tens of seconds and flips within a
fraction of a second. A fixed reference task, timed right before and
right after each measured interval and at a fixed rate during it, tracks
that drift. A sample's slowdown is its time over the part's nominal time
(``REFERENCE_S``, ``ARRAY_REFERENCE_S``); dividing the interval by the
mean slowdown gives its duration in reference seconds: seconds on this
host when it runs at the nominal speed.

A sample has two parts. The interpreter part is a Dijkstra search with
``heapq`` over a fixed weighted grid graph held in dicts: the same kind
of work (dict and list access, float arithmetic, a binary heap, function
calls) as the graph solvers. The array part gathers, sorts and sums a
fixed numpy array, like the vectorized field iterations. The two slow
down by different amounts, so each workload weights them by the share
of its time spent in array code (``Workload.array_share``). Neither part
touches freeflow, so a change to freeflow moves the measured intervals
and not the reference.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

import numpy as np

GRID = 14  # the reference graph is a GRID x GRID grid
SEARCHES = 4  # Dijkstra searches per reference task
ARRAY_SIZE = 100_000  # elements of the array part's data
INTERVAL_S = 0.1  # seconds between samples during an op
# Typical time of each part on a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4); together they fix the unit of reference seconds. Changing them
# rescales every reported time, so they are fixed.
REFERENCE_S = 0.0020
ARRAY_REFERENCE_S = 0.0025


def _grid_graph():
    adjacency = {}
    for i in range(GRID):
        for j in range(GRID):
            v = i * GRID + j
            nbrs = adjacency.setdefault(v, [])
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                a, b = i + di, j + dj
                if a < GRID and b < GRID:
                    w = 1.0 + ((v * 7 + a * 3 + b) % 11) / 10.0
                    nbrs.append((a * GRID + b, w))
                    adjacency.setdefault(a * GRID + b, []).append((v, w))
    return adjacency


_GRAPH = _grid_graph()
_ARRAY = np.random.default_rng(0).random(ARRAY_SIZE)
_GATHER = np.random.default_rng(1).integers(0, ARRAY_SIZE, ARRAY_SIZE // 2)


def reference_task():
    """Fixed interpreter-bound work; returns a checksum so it cannot be skipped."""
    total = 0.0
    for source in range(SEARCHES):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        done = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for u, w in _GRAPH[v]:
                nd = d + w
                if nd < dist.get(u, float("inf")):
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        total += max(dist.values())
    return total


def array_task():
    """Fixed vectorized work on cache-sized arrays; returns a checksum."""
    return float(np.sort(_ARRAY[_GATHER]).sum()) + float(np.cumsum(_ARRAY * 1.5).sum())


class Sampler:
    """Reference-task samples at op boundaries and, while armed, every
    ``INTERVAL_S`` during an op.

    The host's speed flips within a fraction of a second, so samples at
    the two ends of a long op say little about the op itself. While
    armed, a ``SIGALRM`` handler runs the reference task in the main
    thread between bytecodes; its duration is recorded and later taken
    out of the op's time. Each sample is ``(start, duration, slowdown)``:
    the two parts' times over their reference times, weighted by
    ``array_share``.
    """

    def __init__(self, array_share=0.0, clock=time.perf_counter):
        self.array_share = array_share
        self.clock = clock
        self.samples = []
        self._busy = False
        self._previous = None

    def tick(self):
        """One reference task now; returns the index of its sample."""
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            reference_task()
            slowdown = (self.clock() - start) / REFERENCE_S
            if self.array_share:
                middle = self.clock()
                array_task()
                slowdown += self.array_share * (
                    (self.clock() - middle) / ARRAY_REFERENCE_S - slowdown
                )
            self.samples.append((start, self.clock() - start, slowdown))
            return len(self.samples) - 1
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.tick()

    def arm(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def measure(self, step, in_child=False, threaded=False):
        """Run ``step`` between two boundary samples.

        Returns ``(value, seconds, reference_seconds)``: the step's
        duration without the samples taken inside it, and that duration
        divided by the mean slowdown of every sample from the first
        boundary to the second. With ``in_child`` the step waits for a
        child process that runs beside the samples, so they are not
        taken out of its duration. With ``threaded`` the step runs
        worker threads, which would slow the samples by contending for
        the interpreter, so only the boundary samples are taken.
        """
        first = self.tick()
        if threaded:
            previous = signal.setitimer(signal.ITIMER_REAL, 0.0)
        start = self.clock()
        value = step()
        end = self.clock()
        if threaded and previous[1]:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        last = self.tick()
        window = self.samples[first:last + 1]
        inside = 0.0 if in_child else sum(d for t, d, _ in window if start <= t < end)
        seconds = end - start - inside
        slowdown = statistics.fmean(x for _, _, x in window)
        return value, seconds, seconds / slowdown
