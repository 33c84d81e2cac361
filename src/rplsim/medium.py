"""Radio medium with probabilistic reception and a simple CSMA MAC.

The medium runs the link graph it is given (scenario.radio_links): each
frame reaches each of its sender's peers independently with their link's
ratio, except that frames overlapping in time at a receiver destroy each
other there (no capture).  A radio is half duplex: it hears itself, so
while it transmits it receives nothing and senses the channel busy.

A radio serves one queued frame at a time from a FIFO.  A broadcast
(dst None) is sent once; a unicast is acknowledged and retried up to
max_transmissions times.  Every attempt backs off uniformly at random and
senses the channel first.  ACKs are sent after a fixed turnaround without
carrier sensing, never queued, and can be lost like data.  Each copy of a
retried data frame is ACKed but passed up once: every attempt airs the same
frame, whose only receiver is its destination, so it records if one arrived.

A unicast attempt's ACK timeout is due ack_timeout after its data ends and
is queued only once no ACK can come (data missed, destination on air at the
turnaround, ACK lost); the config keeps every ACK's end before its timeout.

Every queued frame ends one way: the radio is freed, the frame's callback
runs, then the next queued frame starts unless the callback queued one.  A
frame reaches its receivers, in ascending id order, in the event that ends
its airtime, after the sender's bookkeeping (frame end or ACK timeout).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Collection

from .engine import Simulator, US_PER_S, below, derive_stream, to_us
from .telemetry import EnergyCurrents, EnergyLedger, TraceRecorder, NULL_TRACE


class FrameKind(Enum):
    DIO = "dio"
    DIS = "dis"
    DATA = "data"
    ACK = "ack"

    def __init__(self, label: str) -> None:
        self.label = label      # the value, read without Enum's property


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


@dataclass(frozen=True)
class MediumConfig:
    """The radio and MAC parameters every node of a run shares."""
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


@dataclass(slots=True)
class Frame:
    """One frame, and for a queued one its MAC state: a broadcast (dst
    None), ended by on_done(), or a retried unicast, ended by
    on_done(success, attempts, data_delivered).  An ACK is never queued."""
    kind: FrameKind
    dst: int | None          # None for broadcast
    payload: object = None
    frame_id: int = 0
    on_done: Callable | None = None
    attempts: int = 0
    data_delivered: bool = False     # ground truth, for packet accounting
    ack_due: int | None = None   # while awaiting an ACK: when it times out


@dataclass(slots=True)
class Transmission:
    """One airing of a frame, and the receivers it can reach."""
    frame: Frame
    victims: Collection[int]     # receivers whose outcome matters, ascending
    ratios: dict[int, float]     # the sender's reception ratio by receiver
    corrupted: frozenset[int] = frozenset()   # replaced only on an overlap


class _Radio:
    """One node's radio: who it hears, its node's jitter and ledger, frames,
    and the airtime it sent and received, which the run books to the ledger
    when it ends."""

    __slots__ = ("node_id", "neighbors", "audible", "jitter", "ledger",
                 "receiver", "queue", "current", "tx_us", "rx_us")

    def __init__(self, node_id: int, neighbors: dict[int, float],
                 jitter: random.Random, ledger: EnergyLedger):
        self.node_id = node_id
        self.neighbors = neighbors    # reception ratio by id, ascending ids
        self.audible = frozenset(neighbors).union((node_id,))  # half duplex
        self.jitter = jitter
        self.ledger = ledger
        self.receiver: Callable[[Frame, int], None] | None = None
        self.queue: deque[Frame] = deque()
        self.current: Frame | None = None
        self.tx_us = 0
        self.rx_us = 0


class Medium:
    """Shared radio channel for one simulation run.  links maps each radio
    to its peers, ascending, with their ratios (scenario.radio_links).  The
    medium derives its reception stream and each radio's jitter stream from
    seed, and gives each radio a ledger drawing currents."""

    def __init__(self, sim: Simulator, cfg: MediumConfig,
                 links: dict[int, dict[int, float]], seed: int,
                 currents: EnergyCurrents | None = None,
                 trace: TraceRecorder = NULL_TRACE):
        self.sim = sim
        self.cfg = cfg
        self._stream = derive_stream(seed, "medium")
        self.trace = trace
        self.radios = {nid: _Radio(nid, peers,
                                   derive_stream(seed, "protocol-jitter", nid),
                                   EnergyLedger(currents))
                       for nid, peers in links.items()}
        self._active: dict[int, Transmission] = {}   # by sender; one at most
        self._next_frame_id = 0
        self._backoff_window_us = to_us(cfg.backoff_window_s)
        self._ack_turnaround_us = to_us(cfg.ack_turnaround_s)
        self._ack_timeout_us = to_us(cfg.ack_timeout_s)
        size = {DIO: cfg.control_frame_bytes, DIS: cfg.control_frame_bytes,
                DATA: cfg.data_frame_bytes, ACK: cfg.ack_frame_bytes}
        # by label: a str hashes in C, an Enum member in Python
        self._airtime_us = {k.label: cfg.airtime_us(n) for k, n in size.items()}

    # ------------------------------------------------------------------ API

    def set_receiver(self, node_id: int,
                     callback: Callable[[Frame, int], None]) -> None:
        self.radios[node_id].receiver = callback

    def broadcast(self, sender: int, kind: FrameKind, payload: object = None,
                  on_done: Callable[[], None] | None = None) -> None:
        """Queue a single-attempt, unacknowledged frame to each in-range node;
        on_done() fires as its airtime ends.  deliver reports each outcome."""
        self._queue(sender, kind, None, payload, on_done)

    def unicast_with_ack(self, sender: int, receiver: int, payload: object,
                         on_complete: Callable[[bool, int, bool], None]) -> None:
        """Queue an acknowledged data frame with bounded retransmissions.

        on_complete(success, attempts_used, data_ever_delivered) fires once;
        the third argument is the medium's ground truth of whether any data
        attempt reached the receiver (it may be True on ACK-only losses).
        """
        self._queue(sender, DATA, receiver, payload, on_complete)

    def deliver(self, tx: Transmission, receiver: int,
                stream: random.Random) -> Outcome:
        """Reception outcome for one receiver of one frame."""
        if receiver in tx.corrupted:
            return LOST_COLLISION
        if stream.random() < tx.ratios[receiver]:
            return DELIVERED
        return LOST_RANDOM

    # ------------------------------------------------------------- MAC layer

    def _queue(self, sender, kind, dst, payload, on_done) -> None:
        self._next_frame_id += 1
        radio = self.radios[sender]
        radio.queue.append(Frame(kind, dst, payload, self._next_frame_id,
                                 on_done))
        if radio.current is None:
            frame = radio.current = radio.queue.popleft()
            frame.attempts = 1
            self._begin_csma(radio, frame)

    def _finish(self, radio: _Radio, *result) -> None:
        """Free the radio, report the frame's result, start the next frame."""
        frame = radio.current
        radio.current = None
        if frame.on_done is not None:
            frame.on_done(*result)
        if radio.current is None and radio.queue:
            frame = radio.current = radio.queue.popleft()
            frame.attempts = 1
            self._begin_csma(radio, frame)

    def _begin_csma(self, radio: _Radio, frame: Frame) -> None:
        def sense() -> None:
            if radio.audible.isdisjoint(self._active):
                self._transmit(radio, frame)
            else:
                self._begin_csma(radio, frame)  # busy: a fresh backoff

        sim = self.sim
        backoff = below(radio.jitter, self._backoff_window_us)
        sim.schedule(sim.now + backoff, None, None, sense)

    def _transmit(self, radio: _Radio, frame: Frame) -> None:
        if frame.dst is None:
            victims = radio.neighbors          # its keys, ascending
        else:
            victims = (frame.dst,) if frame.dst in radio.audible else ()
        tx = Transmission(frame, victims, radio.neighbors)
        # mutual interference with every transmission already in flight;
        # audible holds the radio itself, so a sender cannot also receive
        for other_sender, other in self._active.items():
            tx.corrupted |= self.radios[other_sender].audible.intersection(
                victims)
            other.corrupted |= radio.audible.intersection(other.victims)
        self._active[radio.node_id] = tx
        airtime = self._airtime_us[frame.kind.label]

        def end_of_airtime() -> None:       # shares only what it must
            frame, victims, sender = tx.frame, tx.victims, radio.node_id
            dst, kind = frame.dst, frame.kind
            del self._active[sender]
            now = self.sim.now
            radio.tx_us += airtime
            trace, tracing = self.trace, self.trace.enabled
            if tracing:
                trace.emit((now - airtime, "tx", sender, kind.label,
                            frame.frame_id))
            radios, stream, deliver = self.radios, self._stream, self.deliver
            delivered = []
            for r in victims:
                if deliver(tx, r, stream) is DELIVERED:
                    receiver = radios[r]
                    delivered.append(receiver)
                    receiver.rx_us += airtime
                    if tracing:
                        trace.emit((now, "rx", r, frame.frame_id))
            repeat = frame.data_delivered          # a copy already went up
            if dst is None:
                self._finish(radio)
            elif kind is ACK:                      # never queued: no state
                if not delivered:                  # no ACK can reach dst now
                    self._no_ack(dst)
            else:
                frame.data_delivered |= bool(delivered)
                frame.ack_due = now + self._ack_timeout_us
                if not delivered:                  # no ACK can come now
                    self._no_ack(sender)
            # receivers react last, so whatever the sender scheduled above
            # keeps its place ahead of what they schedule
            for receiver in delivered:
                if kind is ACK:
                    self._receive_ack(receiver, sender)
                    continue
                if kind is DATA:
                    self._send_ack(receiver, sender)  # every copy, up once
                if not repeat and receiver.receiver is not None:
                    receiver.receiver(frame, sender)

        self.sim.schedule(self.sim.now + airtime, None, None, end_of_airtime)

    def _receive_ack(self, radio: _Radio, from_id: int) -> None:
        frame = radio.current         # a broadcast never awaits an ACK
        if (frame is not None and frame.ack_due is not None
                and frame.dst == from_id):
            self._finish(radio, True, frame.attempts, frame.data_delivered)

    def _send_ack(self, radio: _Radio, dst: int) -> None:
        self._next_frame_id += 1
        ack = Frame(ACK, dst, None, self._next_frame_id)

        def fire() -> None:
            if radio.node_id in self._active:
                self._no_ack(dst)          # half duplex: drop the ACK
                return
            self._transmit(radio, ack)

        sim = self.sim
        sim.schedule(sim.now + self._ack_turnaround_us, None, None, fire)

    def _no_ack(self, sender: int) -> None:
        """No ACK can come for sender's frame: queue its ack_due timeout."""
        radio = self.radios[sender]
        frame = radio.current

        def timeout() -> None:
            frame.ack_due = None
            if frame.attempts < self.cfg.max_transmissions:
                frame.attempts += 1
                self._begin_csma(radio, frame)
            else:
                self._finish(radio, False, frame.attempts,
                             frame.data_delivered)

        self.sim.schedule(frame.ack_due, None, None, timeout)
