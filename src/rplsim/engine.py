"""Deterministic discrete-event kernel and reproducible random streams.

Virtual time is a 64-bit count of microseconds so event ordering is exact
and identical on every platform; the clock is the plain attribute
Simulator.now, which only run_until writes.  An event is an action queued
at a time not before now; equal times dequeue in scheduling (FIFO) order.
Randomness is drawn from streams derived from (master_seed, purpose,
node), so each subsystem's draw sequence is independent of how many draws
the others make.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush
from typing import Callable

US_PER_S = 1_000_000

STREAM_PURPOSES = ("topology", "traffic", "medium", "protocol-jitter")


def to_us(seconds: float) -> int:
    """Convert seconds to integer virtual microseconds."""
    return round(seconds * US_PER_S)


def to_s(us: int) -> float:
    return us / US_PER_S


class SchedulingError(Exception):
    """An event was scheduled before the current virtual clock."""


class Event:
    """Handle of one queued callback; cancel() withdraws it."""

    __slots__ = ("action", "cancelled")

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Single-run event queue ordered by (fire_time, sequence)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self.now = 0             # virtual clock in microseconds
        self.events_processed = 0

    def schedule(self, fire_time: int, kind: object, target: object,
                 action: Callable[[], None]) -> Event:
        """Queue an event at fire_time; returns a handle whose cancel()
        withdraws it.  `kind` and `target` are unread; they stay because
        perfbench/hooks.py binds this signature."""
        if fire_time < self.now:
            raise SchedulingError(
                f"event scheduled in the past: t={fire_time} < clock={self.now}"
            )
        event = object.__new__(Event)       # no __init__ frame per event
        event.action = action
        event.cancelled = False
        heappush(self._heap, (fire_time, self._seq, event))
        self._seq += 1
        return event

    def run_until(self, end_time: int) -> int:
        """Process every event with fire_time <= end_time; clock ends at end_time."""
        if end_time < self.now:
            raise SchedulingError(
                f"run_until into the past: t={end_time} < clock={self.now}"
            )
        heap = self._heap
        pop = heappop
        processed = 0
        try:
            while heap and heap[0][0] <= end_time:
                fire_time, _, event = pop(heap)
                if event.cancelled:
                    continue
                self.now = fire_time
                event.action()
                processed += 1
        finally:
            self.events_processed += processed
        self.now = end_time
        return self.now


def below(stream: random.Random, n: int) -> int:
    """stream.randrange(n) as CPython 3.11 draws it, value and stream state
    alike, from getrandbits alone and without randrange's two frames."""
    if n < 1:
        raise ValueError("empty range for below()")
    k = n.bit_length()
    r = stream.getrandbits(k)
    while r >= n:
        r = stream.getrandbits(k)
    return r


def derive_stream(master_seed: int, purpose_tag: str,
                  node_scope: int | None = None) -> random.Random:
    """Derive the isolated PRNG for one (master_seed, purpose, node) slot.

    The key is hashed with sha256 so derivation is stable across processes
    and Python versions (unlike the salted builtin hash()).
    """
    if purpose_tag not in STREAM_PURPOSES:
        raise ValueError(f"unknown stream purpose: {purpose_tag!r}")
    material = f"{master_seed}|{purpose_tag}|{node_scope}".encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
