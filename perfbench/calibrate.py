"""A fixed pure-Python workload that measures how fast the host runs Python
right now, and the scaling of timings by it.

Shared virtual machines change speed by up to a factor of two from one
second to the next (on a 2-vCPU Intel Xeon VM one 100-node run took
0.55 s, 0.68 s or 1.18 s depending on the moment), and no amount of work
per run averages that out.  The benchmark therefore times this loop right
before and right after every piece of timed work and scales the work's time
by REFERENCE_S / (loop time): a change to rplsim moves the scaled time, a
change in host speed moves both sides.  Raw host times are printed beside
the scaled ones.

The loop imitates the simulator's hot path without using any of its code:
a heap-ordered event queue of small objects, callbacks that are bound
methods and closures, per-node dict and set bookkeeping, integer ledgers
and seeded random draws.  Its work is fixed, so its time depends on the
host alone.
"""

from __future__ import annotations

import heapq
import random
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time

NODES = 40
EVENTS = 6_000
# Scaled times are host seconds on a host that runs the loop in this long
# (a typical time on the 2-vCPU Intel Xeon VM the benchmark was tuned on,
# where the loop took 26 to 67 ms).
REFERENCE_S = 0.035


@dataclass
class _Ev:
    time: int
    seq: int
    action: object
    cancelled: bool = False


class _Node:
    def __init__(self, nid: int, loop: "_Loop"):
        self.nid = nid
        self.loop = loop
        self.neighbors = {(nid + k) % NODES: 256 for k in (1, 2, 3, 5, 8)}
        self.heard: set[int] = set()
        self.busy_us = 0
        self.parent = None

    def beacon(self) -> None:
        loop = self.loop
        for other, cost in self.neighbors.items():
            if loop.rng.random() < 0.8:
                loop.nodes[other].hear(self.nid, cost)
        loop.schedule(loop.rng.randrange(50_000, 150_000), self.beacon)

    def hear(self, sender: int, cost: int) -> None:
        self.heard.add(sender)
        self.busy_us += 400
        costs = {n: c + (n * 7) % 64 for n, c in self.neighbors.items()
                 if n in self.heard}
        if not costs:
            return
        best = min(costs.items(), key=lambda item: (item[1], item[0]))
        if best[0] != self.parent:
            self.parent = best[0]
            ev = self.loop.schedule(10_000, lambda: self.hear(sender, cost + 1))
            ev.cancelled = self.loop.rng.random() < 0.5


class _Loop:
    def __init__(self) -> None:
        self.rng = random.Random(20200505)
        self.heap: list = []
        self.seq = 0
        self.now = 0
        self.nodes = [_Node(n, self) for n in range(NODES)]

    def schedule(self, delay: int, action) -> _Ev:
        ev = _Ev(self.now + delay, self.seq, action)
        heapq.heappush(self.heap, (ev.time, ev.seq, ev))
        self.seq += 1
        return ev

    def run(self, events: int) -> int:
        for node in self.nodes:
            self.schedule(self.rng.randrange(100_000), node.beacon)
        done = 0
        while done < events:
            time, _, ev = heapq.heappop(self.heap)
            if ev.cancelled:
                continue
            self.now = time
            ev.action()
            done += 1
        return sum(node.busy_us for node in self.nodes)


def calibration_s(repeats: int = 1, clock=perf_counter) -> float:
    """Host seconds the fixed loop takes now (median of `repeats`)."""
    times = []
    for _ in range(repeats):
        start = clock()
        _Loop().run(EVENTS)
        times.append(clock() - start)
    return sorted(times)[len(times) // 2]


class Sampler:
    """Times the loop twice a second in a background thread, for work that
    runs in other processes (the sweep's pool).  The loop is timed in this
    thread's CPU time, so waiting for a core the pool holds does not count;
    a slow host still does, because it slows the loop's CPU time as much as
    its wall time.  It costs about one core's 8%."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.samples.append(calibration_s(clock=thread_time))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def scale(before: float, after: float) -> float:
    """Factor that turns host seconds measured between two loop timings
    into seconds on the reference host."""
    return REFERENCE_S / ((before + after) / 2)
