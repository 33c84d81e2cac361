"""Per-node RPL upward-routing state machine.

Each node joins a single grounded DODAG rooted at the sink, keeps a
candidate-parent set fed by heard DIOs, and forwards data hop by hop to
the parent the configured objective function picks.  Its one DODAG timer
is DIS while it is detached and trickle while joined, never both; trickle
(RFC 6206) arms it for the send point t, then for the interval's rest I - t.

Candidates expire (RFC 6550) on a per-node housekeeping tick grid: a random
origin, then every housekeeping period.  A node keeps at most one tick
pending, the first grid tick at which its oldest candidate can be stale, so
it wakes only on the ticks that can purge, and with no candidates it arms
none.

Trickle resets follow the usual inconsistency rules with one damping
refinement: a DIO that merely drifts this node's rank by less than one
hop increment (metric noise under MRHOF) is treated as consistent, so the
beacon rate is governed by structural changes, not per-sample ETX jitter.

Both objectives select by one rule.  A candidate carries the value its
objective weighs: the rank through it under OF0, the path cost through it
under MRHOF (re-priced as its link_etx moves).  Selection skips a candidate
ranked no lower than this node or with a saturated value, and a DIO or purge
that touches only skipped candidates selects nothing.  A detached node goes
silent and solicits with DIS; it never advertises INFINITE_RANK.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .engine import to_us
from .medium import DATA, DIO, DIS, Frame, Medium
from .objective import (ETX_INITIAL, INFINITE_RANK, MAX_PATH_COST, MRHOF_ETX,
                        OF0, RANK_UNIT, ROOT_RANK, etx_update, mrhof_path_cost,
                        mrhof_rank, mrhof_select_parent, of0_rank,
                        of0_select_parent)
from .telemetry import CPU, MetricsReport

SINK = "sink"
SENSOR = "sensor"
DIS_JITTER = (0.9, 1.1)     # a DIS wait is dis_period_s times a uniform draw


@dataclass
class ProtocolConfig:
    trickle_i_min_s: float = 4.096
    trickle_doublings: int = 8
    trickle_redundancy_k: int = 10
    dis_period_s: float = 5.0
    queue_capacity: int = 8
    ttl: int = 16
    parent_expiry_floor_s: float = 100.0
    parent_expiry_trickle_factor: float = 3.0
    housekeeping_period_s: float = 10.0
    cpu_process_s: float = 0.001


@dataclass(slots=True)
class DioMessage:
    sender: int
    advertised_rank: int
    path_cost: int | None = None


@dataclass
class TrickleState:
    i_min_us: int
    max_interval_us: int
    redundancy_k: int
    current_interval_us: int = 0
    t_us: int = 0
    counter: int = 0


@dataclass(slots=True)
class CandidateInfo:
    rank: int
    cost: int | None
    through: int         # the value selection weighs; saturated if unusable
    last_heard: int


@dataclass(slots=True)
class DataPacket:
    pid: str
    traffic_class: str
    created: int
    hops: int = 0            # receptions so far; proto.ttl bounds them


class Node:
    """One sensor, or the sink if its id is 0, on its medium's clock and
    trace and its radio's ledger and jitter; mutated only by the event loop."""

    def __init__(self, node_id: int, traffic_class: str | None,
                 objective: str, proto: ProtocolConfig, medium: Medium,
                 metrics: MetricsReport):
        self.id = node_id
        self.role = SINK if node_id == 0 else SENSOR
        self.traffic_class = traffic_class
        self.objective = objective
        self.proto = proto
        self.sim = medium.sim
        self.medium = medium
        radio = medium.radios[node_id]
        self.ledger = radio.ledger
        self.jitter = radio.jitter
        self.metrics = metrics
        self.trace = medium.trace

        self.rank = ROOT_RANK if self.role == SINK else INFINITE_RANK
        self.path_cost: int | None = 0 if self.role == SINK else None
        self.preferred_parent: int | None = None
        self.candidates: dict[int, CandidateInfo] = {}
        self.link_etx: dict[int, int] = {}        # by neighbor; MRHOF only
        i_min = to_us(proto.trickle_i_min_s)
        self.trickle = TrickleState(i_min, i_min << proto.trickle_doublings,
                                    proto.trickle_redundancy_k)
        self.queue: deque[DataPacket] = deque()

        self._timer = None       # DIS while detached, trickle while joined
        self._hk_period_us = to_us(proto.housekeeping_period_s)
        self._expiry_floor_us = to_us(proto.parent_expiry_floor_s)
        self._hk_origin = 0      # the first tick of the housekeeping grid
        self._hk_event = None    # the one pending housekeeping tick
        self._hk_due = 0
        self._in_flight: tuple[DataPacket, int] | None = None  # in the MAC
        self._pkt_seq = 0
        self._cpu_process_us = to_us(proto.cpu_process_s)
        self._last_advertised_rank = self.rank
        # set when a selection input (a candidate's rank or cost, its link
        # ETX, this node's rank or parent) may have moved since selection ran
        self._dirty = True
        medium.set_receiver(node_id, self._on_frame)

    @property
    def joined(self) -> bool:
        # selection sets the rank to INFINITE_RANK exactly when no parent
        return self.role == SINK or self.preferred_parent is not None

    def start(self) -> None:
        if self.role == SINK:
            self._trickle_reset()
        else:
            self._schedule_dis()
            self._hk_origin = self.sim.now + self.jitter.randrange(
                self._hk_period_us)

    # ------------------------------------------------------------ reception

    def _on_frame(self, frame: Frame, from_id: int) -> None:
        if frame.kind is DIO:
            self.on_dio(frame.payload)
        elif frame.kind is DIS:
            self.on_dis(from_id)
        elif frame.kind is DATA:
            self.on_data(frame.payload, from_id)

    def on_dio(self, dio: DioMessage) -> None:
        if self.role == SINK:
            self.trickle.counter += 1
            return
        known = self.candidates.get(dio.sender)
        if known is not None and known.rank == dio.advertised_rank \
                and known.cost == dio.path_cost:
            known.last_heard = self.sim.now  # ETX moves keep through current
        else:
            heard = self.candidates[dio.sender] = CandidateInfo(
                dio.advertised_rank, dio.path_cost,
                self._price(dio.sender, dio.advertised_rank, dio.path_cost),
                self.sim.now)
            self._dirty |= self._selectable(known) or self._selectable(heard)
        if self._hk_event is None:      # a newer last_heard purges no sooner
            self._arm_housekeeping()
        if self._reselect() and self.preferred_parent is not None:  # joined
            self.trickle.counter += 1

    def on_dis(self, from_id: int) -> None:
        if self.joined:
            self._trickle_reset()

    def on_data(self, packet: DataPacket, from_id: int) -> None:
        self.ledger.charge(CPU, self._cpu_process_us)
        packet.hops += 1
        now = self.sim.now
        if self.role == SINK:
            self.metrics.record_packet(packet.traffic_class, "delivered",
                                       hops=packet.hops,
                                       latency_us=now - packet.created)
            if self.trace.enabled:
                self.trace.emit((now, "deliver", self.id, packet.pid,
                                 packet.hops, now - packet.created))
            return
        if self.trace.enabled:
            self.trace.emit((now, "fwd", self.id, packet.pid))
        if packet.hops >= self.proto.ttl:
            self._drop(packet, "ttl")
            return
        self._enqueue(packet)

    # ----------------------------------------------------- parent selection

    def _price(self, neighbor: int, rank: int, cost: int | None) -> int:
        """The value selection weighs for neighbor: the rank through it under
        OF0, the path cost through it (or MAX_PATH_COST) under MRHOF."""
        if self.objective == OF0:
            return of0_rank(rank)
        if cost is None or cost >= MAX_PATH_COST:
            return MAX_PATH_COST
        return mrhof_path_cost(cost, self.link_etx.get(neighbor, ETX_INITIAL))

    def _selectable(self, c: CandidateInfo | None) -> bool:
        """Whether selection would weigh c now (_reselect inlines this test)."""
        return c is not None and c.rank < self.rank \
            and c.through < MAX_PATH_COST

    def _reselect(self) -> bool:
        """Re-run parent selection if an input moved; True when it stayed
        consistent, else reset trickle: the parent switched, or the rank moved
        and now sits a full hop increment away from what this node last
        advertised."""
        if not self._dirty:
            return True
        old_rank, old_parent = self.rank, self.preferred_parent

        candidates = self.candidates
        values = {nid: c.through for nid, c in candidates.items()  # as _selectable
                  if c.rank < old_rank and c.through < MAX_PATH_COST}
        of0 = self.objective == OF0
        select = of0_select_parent if of0 else mrhof_select_parent
        choice = select(values, old_parent)
        new_rank, new_cost = INFINITE_RANK, None
        if choice is not None and of0:      # OF0 weighs the rank itself
            new_rank = values[choice]
        elif choice is not None:
            new_cost = values[choice]
            new_rank = mrhof_rank(candidates[choice].rank, new_cost)
        if choice is None or new_rank >= INFINITE_RANK:
            choice, new_rank, new_cost = None, INFINITE_RANK, None
        assert choice is None or new_rank > candidates[choice].rank
        self.rank, self.path_cost, self.preferred_parent = \
            new_rank, new_cost, choice

        # an unchanged (rank, parent) is a fixpoint until an input moves
        self._dirty = (self.rank, self.preferred_parent) != (old_rank, old_parent)
        if self._dirty and self.trace.enabled:
            self.trace.emit((self.sim.now, "parent", self.id,
                             self.preferred_parent, self.rank))
        joined = choice is not None         # only sensors select
        if joined != (old_parent is not None):
            if joined:
                self._trickle_reset()
            else:
                self._schedule_dis()
                self._arm_housekeeping()     # the expiry fell to its floor
            self.metrics.join_changed(joined, self.sim.now)
        # a join resets trickle again below, its parent having changed
        inconsistent = old_parent != self.preferred_parent or (
            self.rank != old_rank
            and abs(self.rank - self._last_advertised_rank) >= RANK_UNIT)
        if inconsistent and joined:
            self._trickle_reset()
        return not inconsistent

    def _expiry_us(self) -> int:
        if not self.joined:
            return self._expiry_floor_us
        return max(self._expiry_floor_us,
                   round(self.proto.parent_expiry_trickle_factor
                         * self.trickle.current_interval_us))

    def _arm_housekeeping(self) -> None:
        """Keep pending the first grid tick after now at which the oldest
        candidate would be stale, if that is sooner than the pending one.

        A tick that comes early is harmless: last_heard only grows, and the
        expiry grows except at a trickle reset or a detach, which call this.
        """
        if not self.candidates:
            return
        oldest = min([c.last_heard for c in self.candidates.values()])
        after = max(oldest + self._expiry_us(), self.sim.now)
        origin, period = self._hk_origin, self._hk_period_us
        due = origin if after < origin else \
            after + period - (after - origin) % period
        if self._hk_event is not None:
            if due >= self._hk_due:
                return
            self._hk_event.cancel()
        self._hk_due = due
        self._hk_event = self.sim.schedule_in(due - self.sim.now,
                                              self._housekeeping)

    def _housekeeping(self) -> None:
        self._hk_event = None
        now = self.sim.now
        expiry = self._expiry_us()
        stale = [nid for nid, c in self.candidates.items()
                 if now - c.last_heard > expiry]
        if stale:
            for nid in stale:
                self._dirty |= self._selectable(self.candidates.pop(nid))
            self._reselect()
        self._arm_housekeeping()

    # ------------------------------------------------------- trickle and DIS

    def _arm(self, delay_us: int, action) -> None:
        """Make `action` the one pending timer; handlers clear `_timer` first."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.sim.schedule_in(delay_us, action)

    def _trickle_reset(self) -> None:
        self.trickle.current_interval_us = self.trickle.i_min_us
        self._trickle_start_interval()
        self._arm_housekeeping()            # the expiry may have shrunk

    def _trickle_start_interval(self) -> None:
        st = self.trickle
        st.counter = 0
        half = st.current_interval_us // 2
        st.t_us = half + self.jitter.randrange(st.current_interval_us - half)
        self._arm(st.t_us, self._trickle_fire)

    def _trickle_fire(self) -> None:
        st = self.trickle
        self._timer = None          # armed before the DIO's MAC events
        self._arm(st.current_interval_us - st.t_us, self._trickle_interval_end)
        if st.counter < st.redundancy_k:
            self._send_dio()

    def _trickle_interval_end(self) -> None:
        st = self.trickle
        self._timer = None
        st.current_interval_us = min(st.current_interval_us * 2,
                                     st.max_interval_us)
        self._trickle_start_interval()

    def _send_dio(self) -> None:
        dio = DioMessage(self.id, self.rank, self.path_cost)
        self._last_advertised_rank = self.rank
        self.metrics.dio_count += 1
        self.medium.broadcast(self.id, DIO, dio)

    def _schedule_dis(self) -> None:
        period = self.proto.dis_period_s * self.jitter.uniform(*DIS_JITTER)
        self._arm(to_us(period), self._dis_fire)

    def _dis_fire(self) -> None:
        self._timer = None
        self.metrics.dis_count += 1
        self.medium.broadcast(self.id, DIS)
        self._schedule_dis()

    # ------------------------------------------------------------- data path

    def app_generate(self) -> None:
        self._pkt_seq += 1
        packet = DataPacket(pid=f"{self.id}-{self._pkt_seq}",
                            traffic_class=self.traffic_class,
                            created=self.sim.now)
        self.ledger.charge(CPU, self._cpu_process_us)
        if self.trace.enabled:
            self.trace.emit((self.sim.now, "send", self.id, packet.pid,
                             packet.traffic_class))
        if self.preferred_parent is None:
            self._drop(packet, "no-route")
            return
        self._enqueue(packet)

    def _enqueue(self, packet: DataPacket) -> None:
        if len(self.queue) >= self.proto.queue_capacity:
            self._drop(packet, "queue-overflow")
            return
        self.queue.append(packet)
        self._service_queue()

    def _service_queue(self) -> None:
        while self._in_flight is None and self.queue:
            packet = self.queue.popleft()
            parent = self.preferred_parent
            if parent is None:
                self._drop(packet, "no-route")
                continue
            self._in_flight = (packet, parent)
            self.medium.unicast_with_ack(self.id, parent, packet,
                                         self._unicast_done)

    def _unicast_done(self, success: bool, attempts: int,
                      data_delivered: bool) -> None:
        (packet, parent), self._in_flight = self._in_flight, None
        if success and parent in self.candidates:
            self.candidates[parent].last_heard = self.sim.now
        if self.objective == MRHOF_ETX:     # only MRHOF reads link_etx
            before = self.link_etx.get(parent, ETX_INITIAL)
            self.link_etx[parent] = etx_update(
                before, attempts, success, self.medium.cfg.max_transmissions,
                self.sim.now)
            if self.link_etx[parent] != before:
                self._dirty = True
                known = self.candidates.get(parent)
                if known is not None:
                    known.through = self._price(parent, known.rank, known.cost)
            self._reselect()
        if not success and not data_delivered:
            self._drop(packet, "mac-failure")
        self._service_queue()

    def _drop(self, packet: DataPacket, cause: str) -> None:
        self.metrics.record_packet(packet.traffic_class, cause)
        if self.trace.enabled:
            self.trace.emit((self.sim.now, "drop", self.id, packet.pid, cause))
