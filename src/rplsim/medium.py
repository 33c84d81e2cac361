"""Unit-disk radio medium with probabilistic reception and a simple CSMA MAC.

Connectivity is binary: nodes within tx_range hear each other (closed
boundary), nobody else does.  Inside the disk every frame reaches each
in-range receiver independently with its link's ratio (from link_rx, else
the run's), except that frames overlapping in time at a receiver destroy
each other there (no capture).  A radio is half duplex: it hears itself,
so while it transmits it receives nothing and senses the channel busy.

A radio serves one job (one frame) at a time from a FIFO.  A broadcast
(dst None) is sent once; a unicast is acknowledged and retried up to
max_transmissions times.  Every attempt backs off uniformly at random and
senses the channel first.  ACKs are sent after a fixed turnaround without
carrier sensing, outside any job, and can be lost like data.  Each copy of
a retried data frame is ACKed but passed up once: the job keeps one frame,
whose only receiver is its destination, so it knows if a copy arrived.

A unicast attempt's ACK timeout is due ack_timeout after its data ends and
is queued only once no ACK can come (data missed, destination on air at the
turnaround, ACK lost); the config keeps every ACK's end before its timeout.

Every job ends one way: the radio is freed, the job's callback runs, then
the next queued job starts unless the callback queued one.  A frame
reaches its receivers, in ascending id order, in the event that ends its
airtime, after the sender's bookkeeping (job end or ACK timeout).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection

from .engine import Simulator, US_PER_S, to_us
from .telemetry import RX, TX, EnergyLedger, TraceRecorder, NULL_TRACE


class FrameKind(Enum):
    DIO = "dio"
    DIS = "dis"
    DATA = "data"
    ACK = "ack"


class Outcome(Enum):
    DELIVERED = "delivered"
    LOST_RANDOM = "lost-random"
    LOST_COLLISION = "lost-collision"


DIO = FrameKind.DIO      # per-event paths read these names, not Enum members
DIS = FrameKind.DIS
DATA = FrameKind.DATA
ACK = FrameKind.ACK
DELIVERED = Outcome.DELIVERED
LOST_RANDOM = Outcome.LOST_RANDOM
LOST_COLLISION = Outcome.LOST_COLLISION


@dataclass
class MediumConfig:
    tx_range_m: float = 100.0
    bitrate_bps: int = 250_000
    max_transmissions: int = 4      # 1 attempt + 3 retries
    ack_timeout_s: float = 0.002
    ack_turnaround_s: float = 0.000192
    backoff_window_s: float = 0.125
    control_frame_bytes: int = 64
    data_frame_bytes: int = 50
    ack_frame_bytes: int = 11

    def airtime_us(self, nbytes: int) -> int:
        return round(nbytes * 8 * US_PER_S / self.bitrate_bps)


def in_range(a: tuple[float, float], b: tuple[float, float],
             cfg: MediumConfig) -> bool:
    """Closed-boundary unit-disk test: distance == tx_range counts as in range."""
    return math.dist(a, b) <= cfg.tx_range_m


@dataclass(slots=True)
class Frame:
    kind: FrameKind
    src: int
    dst: int | None          # None for broadcast
    size_bytes: int
    payload: object = None
    frame_id: int = 0


@dataclass(slots=True)
class Transmission:
    frame: Frame
    victims: Collection[int]     # receivers whose outcome matters, ascending
    corrupted: set[int] = field(default_factory=set)


@dataclass(slots=True)
class _Job:
    """One queued frame: a broadcast when frame.dst is None, else a unicast
    with ACK and retries.  on_done gets the broadcast's outcomes by receiver,
    or a unicast's (success, attempts_used, data_ever_delivered)."""
    frame: Frame
    on_done: Callable | None
    attempts: int = 0
    data_delivered: bool = False     # ground truth, for packet accounting
    ack_due: int | None = None   # while awaiting an ACK: when it times out


class _Radio:
    """One node's radio: who it hears, backoff stream, ledger and jobs."""

    __slots__ = ("node_id", "neighbors", "audible", "jitter", "ledger",
                 "receiver", "queue", "current")

    def __init__(self, node_id: int, neighbors: dict[int, float],
                 jitter: random.Random, ledger: EnergyLedger):
        self.node_id = node_id
        self.neighbors = neighbors    # reception ratio by id, ascending ids
        self.audible = frozenset(neighbors).union((node_id,))  # half duplex
        self.jitter = jitter
        self.ledger = ledger
        self.receiver: Callable[[Frame, int], None] | None = None
        self.queue: deque[_Job] = deque()
        self.current: _Job | None = None


class Medium:
    """Shared radio channel for one simulation run."""

    def __init__(self, sim: Simulator, cfg: MediumConfig,
                 rx_success_ratio: float,
                 positions: dict[int, tuple[float, float]],
                 stream: random.Random,
                 jitter_streams: dict[int, random.Random],
                 ledgers: dict[int, EnergyLedger],
                 trace: TraceRecorder = NULL_TRACE,
                 link_rx: dict[tuple[int, int], float] | None = None):
        self.sim = sim
        self.cfg = cfg
        self._stream = stream
        self.trace = trace

        # one ratio per link, either way round; the run's ratio by default
        ratios = {frozenset(pair): r for pair, r in (link_rx or {}).items()}
        ids = sorted(positions)
        self._radios = {
            nid: _Radio(nid, {m: ratios.get(frozenset((nid, m)),
                                            rx_success_ratio)
                              for m in ids if m != nid and in_range(
                                  positions[nid], positions[m], cfg)},
                        jitter_streams[nid], ledgers[nid])
            for nid in ids}
        self._active: dict[int, Transmission] = {}   # by sender; one at most
        self._next_frame_id = 0
        self._backoff_window_us = to_us(cfg.backoff_window_s)
        self._ack_turnaround_us = to_us(cfg.ack_turnaround_s)
        self._ack_timeout_us = to_us(cfg.ack_timeout_s)
        self._airtime_us = {size: cfg.airtime_us(size) for size in (
            cfg.control_frame_bytes, cfg.data_frame_bytes, cfg.ack_frame_bytes)}

    # ------------------------------------------------------------------ API

    def set_receiver(self, node_id: int,
                     callback: Callable[[Frame, int], None]) -> None:
        self._radios[node_id].receiver = callback

    def broadcast(self, sender: int, kind: FrameKind, payload: object = None,
                  on_done: Callable[[dict[int, Outcome]], None] | None = None) -> None:
        """Queue a single-attempt, unacknowledged frame to every in-range node."""
        frame = self._new_frame(kind, sender, None, self.cfg.control_frame_bytes,
                                payload)
        self._submit(sender, _Job(frame, on_done))

    def unicast_with_ack(self, sender: int, receiver: int, payload: object,
                         on_complete: Callable[[bool, int, bool], None]) -> None:
        """Queue an acknowledged data frame with bounded retransmissions.

        on_complete(success, attempts_used, data_ever_delivered) fires once;
        the third argument is the medium's ground truth of whether any data
        attempt reached the receiver (it may be True on ACK-only losses).
        """
        frame = self._new_frame(DATA, sender, receiver,
                                self.cfg.data_frame_bytes, payload)
        self._submit(sender, _Job(frame, on_complete))

    def deliver(self, tx: Transmission, receiver: int,
                stream: random.Random) -> Outcome:
        """Reception outcome for one receiver of one frame."""
        if receiver in tx.corrupted:
            return LOST_COLLISION
        if stream.random() < self._radios[tx.frame.src].neighbors[receiver]:
            return DELIVERED
        return LOST_RANDOM

    # ------------------------------------------------------------- MAC layer

    def _new_frame(self, kind, src, dst, size, payload) -> Frame:
        self._next_frame_id += 1
        return Frame(kind, src, dst, size, payload, self._next_frame_id)

    def _submit(self, sender: int, job: _Job) -> None:
        radio = self._radios[sender]
        radio.queue.append(job)
        self._start_next(radio)

    def _start_next(self, radio: _Radio) -> None:
        if radio.current is not None or not radio.queue:
            return
        job = radio.current = radio.queue.popleft()
        job.attempts += 1
        self._begin_csma(radio, job)

    def _finish(self, radio: _Radio, *result) -> None:
        """Free the radio, report the job's result, start the next job."""
        job = radio.current
        radio.current = None
        if job.on_done is not None:
            job.on_done(*result)
        self._start_next(radio)

    def _begin_csma(self, radio: _Radio, job: _Job) -> None:
        backoff = radio.jitter.randrange(self._backoff_window_us)
        self.sim.schedule_in(backoff, lambda: self._sense(radio, job))

    def _sense(self, radio: _Radio, job: _Job) -> None:
        if not radio.audible.isdisjoint(self._active):
            self._begin_csma(radio, job)      # busy: defer with a fresh backoff
            return
        self._transmit(radio, job, job.frame)

    def _transmit(self, radio: _Radio, job: _Job | None, frame: Frame) -> None:
        if frame.dst is None:
            victims = radio.neighbors.keys()
        else:
            victims = (frame.dst,) if frame.dst in radio.audible else ()
        airtime = self._airtime_us[frame.size_bytes]
        tx = Transmission(frame, victims)
        self._register(radio, tx)
        self.sim.schedule_in(airtime, lambda: self._tx_end(radio, job, tx))

    def _register(self, radio: _Radio, tx: Transmission) -> None:
        # mutual interference with every transmission already in flight;
        # audible holds the radio itself, so a sender cannot also receive
        if self._active:
            for other_sender, other in self._active.items():
                tx.corrupted |= self._radios[other_sender].audible.intersection(
                    tx.victims)
                other.corrupted |= radio.audible.intersection(other.victims)
        self._active[radio.node_id] = tx

    def _tx_end(self, radio: _Radio, job: _Job | None,
                tx: Transmission) -> None:
        sender, frame = radio.node_id, tx.frame
        del self._active[sender]
        now = self.sim.now                 # one airtime after _transmit
        airtime = self._airtime_us[frame.size_bytes]
        radio.ledger.charge(TX, airtime)
        tracing = self.trace.enabled
        if tracing:
            self.trace.emit((now - airtime, "tx", sender, frame.kind.value,
                             frame.size_bytes, frame.frame_id))
        radios, stream, deliver = self._radios, self._stream, self.deliver
        broadcast = frame.dst is None      # only its on_done reads outcomes
        outcomes: dict[int, Outcome] = {}
        delivered = []
        for r in tx.victims:
            outcome = deliver(tx, r, stream)
            if broadcast:
                outcomes[r] = outcome
            if outcome is DELIVERED:
                receiver = radios[r]
                delivered.append(receiver)
                receiver.ledger.charge(RX, airtime)
                if tracing:
                    self.trace.emit((now, "rx", r, sender,
                                     frame.size_bytes, frame.frame_id))

        repeat = job is not None and job.data_delivered   # a copy went up
        if broadcast:
            self._finish(radio, outcomes)
        else:                                      # data, or an ACK (no job)
            if job is not None:
                job.data_delivered |= bool(delivered)
                job.ack_due = now + self._ack_timeout_us
            if not delivered:                      # no ACK can come now
                self._no_ack(sender if job is not None else frame.dst)
        # receivers react last, so whatever the sender scheduled above
        # keeps its place ahead of what they schedule
        for receiver in delivered:
            self._receive(receiver, frame, repeat)

    def _receive(self, radio: _Radio, frame: Frame,
                 repeat: bool = False) -> None:
        from_id, kind = frame.src, frame.kind
        if kind is ACK:
            job = radio.current       # a broadcast never awaits an ACK
            if (job is not None and job.ack_due is not None
                    and job.frame.dst == from_id):
                self._finish(radio, True, job.attempts, job.data_delivered)
            return
        if kind is DATA:
            self._send_ack(radio, from_id)     # every copy, but up only once
        if not repeat and radio.receiver is not None:
            radio.receiver(frame, from_id)

    def _send_ack(self, radio: _Radio, dst: int) -> None:
        ack = self._new_frame(ACK, radio.node_id, dst,
                              self.cfg.ack_frame_bytes, None)

        def fire() -> None:
            if radio.node_id in self._active:
                self._no_ack(dst)          # half duplex: drop the ACK
                return
            self._transmit(radio, None, ack)

        self.sim.schedule_in(self._ack_turnaround_us, fire)

    def _no_ack(self, sender: int) -> None:
        """No ACK can reach sender's job now: queue its timeout for ack_due."""
        radio = self._radios[sender]
        job = radio.current
        self.sim.schedule_in(job.ack_due - self.sim.now,
                             lambda: self._ack_timeout(radio, job))

    def _ack_timeout(self, radio: _Radio, job: _Job) -> None:
        job.ack_due = None
        if job.attempts < self.cfg.max_transmissions:
            job.attempts += 1
            self._begin_csma(radio, job)
        else:
            self._finish(radio, False, job.attempts, job.data_delivered)
