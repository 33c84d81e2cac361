"""Radio medium: range, losses, collisions, CSMA unicast statistics."""

import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from oracles import disk_edges
from rplsim.engine import Simulator, to_us
from rplsim.medium import FrameKind, Medium, MediumConfig, Outcome
from rplsim.scenario import radio_links
from rplsim.telemetry import NULL_TRACE, TraceRecorder

SEC = to_us(1.0)


def make_medium(positions, seed=1, trace=None, link_rx=None,
                rx_success_ratio=1.0, **cfg_kwargs):
    sim = Simulator()
    cfg = MediumConfig(**cfg_kwargs)
    links = radio_links(positions, cfg.tx_range_m, rx_success_ratio, link_rx)
    medium = Medium(sim, cfg, links, seed, trace=trace or NULL_TRACE)
    return sim, medium, {nid: r.ledger for nid, r in medium.radios.items()}


def collect_frames(medium, nodes):
    """Register recording receivers; returns the shared inbox list."""
    inbox = []
    for nid in nodes:
        medium.set_receiver(nid, lambda frame, src, nid=nid:
                            inbox.append((nid, frame, src)))
    return inbox


def record_outcomes(medium):
    """Wrap this medium's deliver, the one place a reception's outcome is
    reported; returns the list of (frame, receiver, outcome) it appends, in
    draw order."""
    deliver, drawn = medium.deliver, []

    def recording(tx, receiver, stream):
        outcome = deliver(tx, receiver, stream)
        drawn.append((tx.frame, receiver, outcome))
        return outcome

    medium.deliver = recording      # end_of_airtime looks it up each time
    return drawn


def in_order(links):
    """A link map as nested item lists, so comparing it compares order too."""
    return [(a, list(peers.items())) for a, peers in links.items()]


# coordinates on a 1/8 m grid within 1024 m of the origin: every difference,
# square and sum of squares below is exact in floating point, and each move
# keeps every squared distance or scales all of them by a power of four
EIGHTHS = st.integers(-8192, 8192).map(lambda k: k / 8)
MOVES = {    # name: (the move of one position, given a shift and a scale)
    "mirror": lambda x, y, shift, scale: (-x, y),
    "rotate-90": lambda x, y, shift, scale: (-y, x),
    "translate": lambda x, y, shift, scale: (x + shift[0], y + shift[1]),
    "scale": lambda x, y, shift, scale: (x * scale, y * scale),
}


class TestInRange:
    def test_later_link_rx_entry_wins_both_ways(self):
        links = radio_links({0: (0.0, 0.0), 1: (50.0, 0.0)}, 100.0, 0.9,
                            {(0, 1): 0.2, (1, 0): 0.7})
        assert links == {0: {1: 0.7}, 1: {0: 0.7}}

    # the range is the distance of the first two points, so that pair lies
    # exactly on the boundary; ids are shuffled, so the map sorts them itself.
    # The examples add, at a 100 m range, two nodes at one spot and a node
    # 100.01 m away; with no shift and a scale of 1 every move stays exact
    @settings(max_examples=100)
    @given(points=st.lists(st.tuples(EIGHTHS, EIGHTHS), min_size=2,
                           max_size=12),
           ids=st.permutations(range(12)),
           shift=st.tuples(EIGHTHS, EIGHTHS), power=st.integers(-4, 4))
    @example(points=[(0.0, 0.0), (100.0, 0.0), (0.0, 0.0)],
             ids=list(range(12)), shift=(0.0, 0.0), power=0)
    @example(points=[(0.0, 0.0), (100.0, 0.0), (100.01, 0.0)],
             ids=list(range(12)), shift=(0.0, 0.0), power=0)
    def test_matches_the_disk_oracle_and_its_symmetries(self, points, ids,
                                                       shift, power):
        positions = dict(zip(ids, points))
        tx_range = math.dist(points[0], points[1])
        links = radio_links(positions, tx_range)
        assert ids[1] in links[ids[0]]
        assert [(a, list(peers)) for a, peers in links.items()] \
            == list(disk_edges(positions, tx_range).items())
        assert {r for peers in links.values() for r in peers.values()} \
            <= {1.0}
        scale = 2.0 ** power
        for name, move in MOVES.items():
            moved = {nid: move(x, y, shift, scale)
                     for nid, (x, y) in positions.items()}
            factor = scale if name == "scale" else 1
            assert in_order(radio_links(moved, tx_range * factor)) \
                == in_order(links), name


class TestConfig:
    def test_airtime_is_exact_at_default_bitrate(self):
        cfg = MediumConfig()
        assert cfg.airtime_us(64) == 2048
        assert cfg.airtime_us(cfg.data_frame_bytes) == 1600
        assert cfg.airtime_us(11) == 352

    def test_airtime_table_matches_config_where_rounding_matters(self):
        # at 19,200 bps no frame size is a whole number of microseconds
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        sim, medium, ledgers = make_medium(positions, bitrate_bps=19_200,
                                           ack_timeout_s=0.01)
        cfg = medium.cfg
        control = cfg.control_frame_bytes
        sizes = {"dio": control, "dis": control,
                 "data": cfg.data_frame_bytes, "ack": cfg.ack_frame_bytes}
        assert all(n * 8 * SEC % cfg.bitrate_bps for n in sizes.values())
        assert medium._airtime_us == {kind: cfg.airtime_us(n)
                                      for kind, n in sizes.items()}
        done = []
        medium.broadcast(0, FrameKind.DIS)
        medium.unicast_with_ack(0, 1, None, lambda *r: done.append(r))
        sim.run_until(SEC)
        assert done == [(True, 1, True)]
        assert ledgers[0].tx_us == cfg.airtime_us(64) + cfg.airtime_us(50)
        assert ledgers[1].tx_us == cfg.airtime_us(11)


class TestBroadcast:
    def test_all_receivers_at_ratio_one(self):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (0.0, 50.0),
                     3: (-50.0, 0.0)}
        sim, medium, _ = make_medium(positions, rx_success_ratio=1.0)
        inbox = collect_frames(medium, positions)
        drawn = record_outcomes(medium)
        medium.broadcast(0, FrameKind.DIS)
        sim.run_until(SEC)
        assert {r: o for _, r, o in drawn} == {
            1: Outcome.DELIVERED, 2: Outcome.DELIVERED, 3: Outcome.DELIVERED}
        assert sorted(nid for nid, _, _ in inbox) == [1, 2, 3]

    def test_no_receivers_still_charges_sender(self):
        positions = {0: (0.0, 0.0), 1: (500.0, 0.0)}
        sim, medium, ledgers = make_medium(positions)
        drawn, done = record_outcomes(medium), []
        medium.broadcast(0, FrameKind.DIS, on_done=lambda: done.append(1))
        sim.run_until(SEC)
        assert drawn == [] and done == [1]
        assert ledgers[0].tx_us == 2048
        assert ledgers[0].cpu_us == 2048
        assert ledgers[1].rx_us == 0

    def test_sender_never_receives_own_frame(self):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        sim, medium, _ = make_medium(positions)
        inbox = collect_frames(medium, positions)
        medium.broadcast(0, FrameKind.DIS)
        sim.run_until(SEC)
        assert all(nid != 0 for nid, _, _ in inbox)

    def test_hidden_senders_collide_at_shared_receiver(self):
        # 0 and 2 cannot hear each other; both are audible at 1
        positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)}
        sim, medium, _ = make_medium(positions, backoff_window_s=2e-6)
        drawn = record_outcomes(medium)
        medium.broadcast(0, FrameKind.DIS)       # frame 1
        medium.broadcast(2, FrameKind.DIS)       # frame 2
        sim.run_until(SEC)
        results = {f.frame_id: (r, o) for f, r, o in drawn}
        assert results[1] == (1, Outcome.LOST_COLLISION)
        assert results[2] == (1, Outcome.LOST_COLLISION)

    def test_deliver_reports_every_receivers_outcome(self):
        # 2 is hidden from 0 and collides with it at 1 only; 0's link to 3
        # loses every frame
        positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0),
                     3: (0.0, 50.0), 4: (0.0, -50.0)}
        sim, medium, _ = make_medium(positions, backoff_window_s=2e-6,
                                     link_rx={(0, 3): 0.0})
        drawn = record_outcomes(medium)
        medium.broadcast(0, FrameKind.DIO)
        medium.broadcast(2, FrameKind.DIS)
        sim.run_until(SEC)
        assert [(r, o) for f, r, o in drawn if f.kind is FrameKind.DIO] == [
            (1, Outcome.LOST_COLLISION), (3, Outcome.LOST_RANDOM),
            (4, Outcome.DELIVERED)]

    def test_delivery_counts_are_binomial(self):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (0.0, 50.0),
                     3: (-50.0, 0.0), 4: (0.0, -50.0)}
        sim, medium, _ = make_medium(positions, rx_success_ratio=0.8,
                                     backoff_window_s=0.004)
        drawn = record_outcomes(medium)
        trials = 5000
        for _ in range(trials):
            medium.broadcast(0, FrameKind.DIS)
        sim.run_until(200 * SEC)
        per_frame = Counter()      # delivered receivers by frame, 0 included
        for frame, _, outcome in drawn:
            per_frame[frame.frame_id] += outcome is Outcome.DELIVERED
        assert len(per_frame) == trials and len(drawn) == 4 * trials
        counts = [0] * 5
        for delivered in per_frame.values():
            counts[delivered] += 1
        expected = [trials * scipy_stats.binom.pmf(k, 4, 0.8) for k in range(5)]
        statistic, _ = scipy_stats.chisquare(counts, expected)
        assert statistic < scipy_stats.chi2.ppf(0.999, df=4)


class TestDelivery:
    def test_broadcast_reaches_receivers_inside_its_tx_end_event(self):
        # receivers are inserted out of id order; the medium sorts them
        positions = {0: (0.0, 0.0), 3: (50.0, 0.0), 1: (0.0, 50.0),
                     2: (-50.0, 0.0)}
        trace = TraceRecorder(enabled=True)
        sim, medium, _ = make_medium(positions, trace=trace)
        heard = []
        for nid in positions:
            medium.set_receiver(nid, lambda frame, src, nid=nid:
                                heard.append((sim.now, nid)))
        medium.broadcast(0, FrameKind.DIS)
        sim.run_until(SEC)
        assert sim.events_processed == 2        # CSMA sense, TX_END
        (tx,) = [r for r in trace.records if r[1] == "tx"]
        end = tx[0] + medium.cfg.airtime_us(medium.cfg.control_frame_bytes)
        assert heard == [(end, 1), (end, 2), (end, 3)]

    def test_radio_on_air_cannot_receive(self):
        # 0 and 2 cannot hear each other; 1 sends its ACK to 2 while 0's
        # DIS is on air, so 1 misses the DIS
        positions = {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)}
        trace = TraceRecorder(enabled=True)
        sim, medium, ledgers = make_medium(positions, trace=trace,
                                           backoff_window_s=2e-6)
        collect_frames(medium, positions)
        drawn, unicasts = record_outcomes(medium), []
        medium.unicast_with_ack(2, 1, None, lambda *r: unicasts.append(r))
        sim.schedule(1700, None, None,
                     lambda: medium.broadcast(0, FrameKind.DIS))
        sim.run_until(SEC)
        start = {r[3]: r[0] for r in trace.records if r[1] == "tx"}
        assert start["dis"] < start["ack"] < start["dis"] + 2048
        assert [(r, o) for f, r, o in drawn if f.kind is FrameKind.DIS] \
            == [(1, Outcome.LOST_COLLISION)]
        assert ledgers[1].rx_us == 1600          # 2's data frame only
        assert unicasts == [(True, 1, True)]


class TestUnicast:
    def run_unicasts(self, n, rx, seed=1):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        sim, medium, _ = make_medium(positions, seed=seed,
                                     rx_success_ratio=rx,
                                     backoff_window_s=0.004)
        collect_frames(medium, positions)
        results = []
        for _ in range(n):
            medium.unicast_with_ack(
                0, 1, None,
                lambda ok, attempts, truth: results.append((ok, attempts, truth)))
        sim.run_until(2000 * SEC)
        assert len(results) == n
        return results

    def test_perfect_channel_single_attempt(self):
        results = self.run_unicasts(5, rx=1.0)
        assert all(ok and attempts == 1 for ok, attempts, _ in results)

    def test_zero_ratio_exhausts_attempts(self):
        results = self.run_unicasts(5, rx=0.0)
        assert all(not ok and attempts == 4 and not truth
                   for ok, attempts, truth in results)

    def test_ack_only_loss_reports_ground_truth(self):
        # on a very lossy link some jobs fail at the sender even though a
        # data attempt did arrive (only the ACKs were lost); the third
        # callback argument exposes that ground truth
        results = self.run_unicasts(3000, rx=0.5, seed=5)
        failed_but_arrived = [r for r in results if not r[0] and r[2]]
        assert failed_but_arrived, "expected some ACK-only failures at rx=0.5"

    def test_per_link_override_beats_global_ratio(self):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        sim, medium, _ = make_medium(positions, rx_success_ratio=0.0,
                                     backoff_window_s=0.004,
                                     link_rx={(0, 1): 1.0})
        collect_frames(medium, positions)
        results = []
        medium.unicast_with_ack(0, 1, None,
                                lambda ok, a, t: results.append((ok, a)))
        sim.run_until(SEC)
        assert results == [(True, 1)]

    def test_retried_copy_is_acked_but_passed_up_once(self, monkeypatch):
        # the first ACK is lost, so the data frame is sent twice and
        # reaches its destination both times
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        sim, medium, _ = make_medium(positions, backoff_window_s=0.004)
        inbox = collect_frames(medium, positions)
        deliver, acks = medium.deliver, []

        def lose_first_ack(tx, receiver, stream):
            if tx.frame.kind is FrameKind.ACK:
                acks.append(tx.frame.frame_id)
                if len(acks) == 1:
                    return Outcome.LOST_RANDOM
            return deliver(tx, receiver, stream)

        monkeypatch.setattr(medium, "deliver", lose_first_ack)
        results = []
        medium.unicast_with_ack(0, 1, "x", lambda *r: results.append(r))
        sim.run_until(SEC)
        assert [(nid, src) for nid, _, src in inbox] == [(1, 0)]
        assert len(set(acks)) == 2
        assert results == [(True, 2, True)]


class TestJobEnd:
    """Broadcast done, ACK heard and attempts exhausted end a job one way:
    the radio is freed, the callback runs, then the next job starts."""

    def test_frame_queued_from_broadcast_on_done_starts_next(self):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        trace = TraceRecorder(enabled=True)
        sim, medium, _ = make_medium(positions, trace=trace)
        radio = medium.radios[0]
        drawn, log = record_outcomes(medium), []

        def queue_dio():
            medium.broadcast(0, FrameKind.DIO,
                             on_done=lambda: log.append(("dio", len(drawn))))
            log.append((radio.current.frame.kind, len(radio.queue)))

        medium.broadcast(0, FrameKind.DIS, on_done=queue_dio)
        sim.run_until(SEC)
        assert log == [(FrameKind.DIO, 0), ("dio", 2)]
        assert [(f.kind, r, o) for f, r, o in drawn] == [
            (FrameKind.DIS, 1, Outcome.DELIVERED),
            (FrameKind.DIO, 1, Outcome.DELIVERED)]
        sent = [r[3] for r in trace.records if r[1] == "tx"]
        assert sent == ["dis", "dio"]

    def test_ack_during_broadcast_leaves_the_job_alone(self):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
        trace = TraceRecorder(enabled=True)
        sim, medium, _ = make_medium(positions, trace=trace)
        drawn, seen = record_outcomes(medium), []
        medium.broadcast(0, FrameKind.DIS,
                         on_done=lambda: seen.append(len(drawn)))
        medium._send_ack(medium.radios[1], 0)     # heard during 0's backoff
        sim.run_until(SEC)
        ack, dis = [r for r in trace.records if r[1] == "tx"]
        assert (ack[3], dis[3]) == ("ack", "dis")
        heard = [(r[2], r[3]) for r in trace.records if r[1] == "rx"]
        assert heard == [(0, ack[4]), (1, dis[4])]
        assert [(f.kind, r, o) for f, r, o in drawn] == [
            (FrameKind.ACK, 0, Outcome.DELIVERED),
            (FrameKind.DIS, 1, Outcome.DELIVERED)]
        assert seen == [2]             # the broadcast ends once, after both

    def test_ack_from_another_node_neither_ends_nor_disarms(self):
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (0.0, 50.0)}
        sim, medium, _ = make_medium(positions)
        radio = medium.radios[0]
        results, checked = [], []

        def on_data(frame, src):
            # 0's job awaits an ACK; an ACK from 2 arrives first
            job = radio.current
            medium._receive_ack(radio, 2)
            checked.append((radio.current is job, job.ack_due is None))

        medium.set_receiver(1, on_data)
        medium.unicast_with_ack(0, 1, None,
                                lambda *result: results.append(result))
        sim.run_until(SEC)
        assert checked == [(True, False)]
        assert results == [(True, 1, True)]


class TestAckTimeout:
    """A unicast attempt's timeout is queued only once no ACK can come, and
    is due ack_timeout after the data frame's end whichever way the ACK is
    missed.  Without its timeout the job would never end."""

    @staticmethod
    def run(positions, on_data=None, **cfg_kwargs):
        trace = TraceRecorder(enabled=True)
        sim, medium, _ = make_medium(positions, trace=trace,
                                     backoff_window_s=2e-6,
                                     max_transmissions=1, **cfg_kwargs)
        if on_data is not None:
            medium.set_receiver(1, lambda frame, src: on_data(sim, medium))
        results = []
        medium.unicast_with_ack(0, 1, None,
                                lambda *r: results.append((sim.now, *r)))
        sim.run_until(SEC)
        sent = {r[3]: r[0] for r in trace.records if r[1] == "tx"}
        cfg = medium.cfg
        due = (sent["data"] + cfg.airtime_us(cfg.data_frame_bytes)
               + to_us(cfg.ack_timeout_s))
        return results, due, sent

    def test_armed_when_the_destination_missed_the_data(self):
        results, due, sent = self.run({0: (0.0, 0.0), 1: (50.0, 0.0)},
                                      rx_success_ratio=0.0)
        assert "ack" not in sent
        assert results == [(due, False, 1, False)]

    def test_armed_when_the_destination_is_on_air_at_turnaround(self):
        # 1 starts a broadcast as the data arrives, so its ACK is dropped
        results, due, sent = self.run(
            {0: (0.0, 0.0), 1: (50.0, 0.0)},
            on_data=lambda sim, medium: medium.broadcast(1, FrameKind.DIS))
        assert "ack" not in sent
        assert results == [(due, False, 1, True)]

    def test_armed_when_the_ack_is_lost(self):
        # 2 cannot hear 1; its DIS, begun after the data frame, destroys
        # 1's ACK at 0
        results, due, sent = self.run(
            {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (-80.0, 0.0)},
            on_data=lambda sim, medium: sim.schedule_in(
                100, lambda: medium.broadcast(2, FrameKind.DIS)))
        assert sent["dis"] < sent["ack"] < sent["dis"] + 2048
        assert results == [(due, False, 1, True)]
