"""RPL node behavior: joining, trickle, parent maintenance, forwarding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rplsim.rpl
from rplsim.cli import result_to_row
from rplsim.engine import Event, Simulator, to_us
from rplsim.medium import Medium, MediumConfig
from rplsim.objective import (ETX_INITIAL, INFINITE_RANK, MAX_PATH_COST,
                              RANK_UNIT, ROOT_RANK, mrhof_path_cost, of0_rank)
from rplsim.rpl import (CandidateInfo, DioMessage, Node, ProtocolConfig,
                        SENSOR)
from rplsim.scenario import ScenarioConfig, radio_links
from rplsim.simulate import run_scenario
from rplsim.telemetry import MetricsReport, TraceRecorder
from test_simulate import links_only

SEC = to_us(1.0)
I_MIN_US = to_us(4.096)


def make_net(positions, objective="of0", seed=1, rx=1.0, proto=None,
             with_sink=True, trace=None):
    sim = Simulator()
    proto = proto or ProtocolConfig()
    trace = trace or TraceRecorder(enabled=False)
    cfg = MediumConfig()
    medium = Medium(sim, cfg, radio_links(positions, cfg.tx_range_m, rx),
                    seed, trace=trace)
    metrics = MetricsReport()
    nodes = {}
    for nid in sorted(positions):
        if nid == 0 and not with_sink:
            continue
        nodes[nid] = Node(nid, "high-critical", objective, proto, medium,
                          metrics)
    return sim, medium, nodes, metrics


def line_positions(n, spacing=80.0):
    return {i: (i * spacing, 0.0) for i in range(n)}


def count_cancels(monkeypatch):
    """The events cancelled from now on, in order."""
    cancels = []
    cancel = Event.cancel

    def counted(event):
        cancels.append(event)
        cancel(event)
    monkeypatch.setattr(Event, "cancel", counted)
    return cancels


def mixed_link_rx():
    """Own ratios for about half the radio links of the 30-node, seed-2
    random runs below; the rest use the run's."""
    rng = random.Random(5)
    cfg = ScenarioConfig(node_count=30, topology="random", objective="etx",
                         rx_success_ratio=0.8, seed=2)
    return links_only(cfg, {(a, b): rng.choice((0.5, 0.8, 0.95))
                            for a in range(30) for b in range(a + 1, 30)
                            if rng.random() < 0.5})


def poll_every_tick(monkeypatch):
    """Make each sensor wake on every tick of its housekeeping grid, as a
    fixed-period poll does: the reference the lazy ticks must match."""
    start = Node.start

    def schedule_tick(node, due):
        node._hk_event = node.sim.schedule(due, None, None, node._housekeeping)

    def started(self):
        start(self)
        if self.role == SENSOR:
            schedule_tick(self, self._hk_origin)

    def next_tick(self):        # runs only inside a tick once started
        if self.role == SENSOR and self._hk_event is None:
            now, period = self.sim.now, self._hk_period_us
            schedule_tick(self, now + period - (now - self._hk_origin) % period)
    monkeypatch.setattr(Node, "start", started)
    monkeypatch.setattr(Node, "_arm_housekeeping", next_tick)


def record_wakes(monkeypatch):
    """Every housekeeping wake as (t, node, ids it purged), in order."""
    wakes = []
    housekeeping = Node._housekeeping

    def recorded(self):
        before = set(self.candidates)
        housekeeping(self)
        wakes.append((self.sim.now, self.id,
                      tuple(sorted(before - set(self.candidates)))))
    monkeypatch.setattr(Node, "_housekeeping", recorded)
    return wakes


def purges(wakes):
    return [wake for wake in wakes if wake[2]]


def expire(node, nid):
    """Purge candidate nid and select again, as a housekeeping tick that
    finds it stale does."""
    del node.candidates[nid]
    node._dirty = True
    node._reselect()


class TestJoin:
    def test_root_dio_joins_with_one_hop_rank(self):
        sim, _, nodes, _ = make_net(line_positions(2))
        n1 = nodes[1]
        assert n1.rank == INFINITE_RANK
        n1.on_dio(DioMessage(0, ROOT_RANK))
        assert n1.rank == 512
        assert n1.preferred_parent == 0
        assert n1.joined

    def test_worse_dio_leaves_state_and_bumps_counter(self):
        sim, _, nodes, _ = make_net(line_positions(3))
        n1 = nodes[1]
        n1.on_dio(DioMessage(0, ROOT_RANK))
        counter_before = n1.trickle.counter
        n1.on_dio(DioMessage(2, 768))
        assert n1.rank == 512
        assert n1.preferred_parent == 0
        assert n1.trickle.counter == counter_before + 1

    @pytest.mark.parametrize("rank", [512, 768])
    def test_of0_dio_from_a_sender_not_below_selects_nothing(
            self, monkeypatch, rank):
        sim, _, nodes, _ = make_net(line_positions(3))
        n1 = nodes[1]
        n1.on_dio(DioMessage(0, ROOT_RANK))
        n1.on_dio(DioMessage(0, ROOT_RANK))     # selection settles
        assert not n1._dirty
        selects = []
        select = rplsim.rpl.of0_select_parent

        def counted(candidates, current=None):
            selects.append(dict(candidates))
            return select(candidates, current)
        monkeypatch.setattr(rplsim.rpl, "of0_select_parent", counted)
        n1.on_dio(DioMessage(2, rank))
        n1.on_dio(DioMessage(2, rank + RANK_UNIT))
        assert selects == []
        assert (n1.rank, n1.preferred_parent) == (512, 0)

    def test_sink_state_is_immutable(self):
        sim, _, nodes, _ = make_net(line_positions(2))
        sink = nodes[0]
        sink.on_dio(DioMessage(1, 512))
        assert sink.rank == ROOT_RANK
        assert sink.preferred_parent is None
        assert sink.joined


class TestLineConvergence:
    def test_ranks_grow_one_unit_per_hop(self):
        cfg = ScenarioConfig(node_count=5, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=180.0,
                             warmup_s=60.0, traffic_classes=())
        result = run_scenario(cfg, positions=line_positions(5))
        for nid in range(5):
            assert result.nodes[nid].rank == 256 * (nid + 1)
        for nid in range(1, 5):
            assert result.nodes[nid].preferred_parent == nid - 1

    def test_rank_strictly_exceeds_parent_advertised_rank(self):
        cfg = ScenarioConfig(node_count=20, topology="random", objective="etx",
                             rx_success_ratio=0.8, duration_s=300.0,
                             warmup_s=60.0, seed=9)
        result = run_scenario(cfg)
        for snap in result.nodes.values():
            if snap.preferred_parent is not None:
                assert snap.rank > snap.candidates[snap.preferred_parent].rank


class TestTrickle:
    def joined_sensor(self):
        sim, _, nodes, metrics = make_net(line_positions(2))
        n1 = nodes[1]
        n1.on_dio(DioMessage(0, ROOT_RANK))
        return sim, n1, metrics

    def test_fire_sends_when_counter_below_k(self):
        _, n1, metrics = self.joined_sensor()
        n1.trickle.counter = 0
        before = metrics.dio_count
        n1._trickle_fire()
        assert metrics.dio_count == before + 1

    def test_fire_suppressed_at_redundancy(self):
        _, n1, metrics = self.joined_sensor()
        n1.trickle.counter = n1.trickle.redundancy_k
        before = metrics.dio_count
        n1._trickle_fire()
        assert metrics.dio_count == before

    def test_interval_doubles_to_cap(self):
        _, n1, _ = self.joined_sensor()
        seen = [n1.trickle.current_interval_us]
        for _ in range(12):
            n1._trickle_interval_end()
            seen.append(n1.trickle.current_interval_us)
        expected = [min(I_MIN_US * 2 ** i, I_MIN_US * 256) for i in range(13)]
        assert seen == expected
        assert seen[-1] == to_us(1048.576)

    def test_reset_returns_to_i_min_idempotently(self):
        _, n1, _ = self.joined_sensor()
        for _ in range(4):
            n1._trickle_interval_end()
        assert n1.trickle.current_interval_us > I_MIN_US
        n1._trickle_reset()
        assert n1.trickle.current_interval_us == I_MIN_US
        n1._trickle_reset()
        assert n1.trickle.current_interval_us == I_MIN_US

    def test_fire_point_in_second_half_of_interval(self):
        _, n1, _ = self.joined_sensor()
        for _ in range(1000):
            n1._trickle_reset()
            assert I_MIN_US // 2 <= n1.trickle.t_us < I_MIN_US

    def test_dis_resets_joined_receiver(self):
        _, n1, _ = self.joined_sensor()
        for _ in range(3):
            n1._trickle_interval_end()
        n1.on_dis(from_id=99)
        assert n1.trickle.current_interval_us == I_MIN_US

    def test_interval_bounds_invariant(self):
        _, n1, _ = self.joined_sensor()
        for _ in range(40):
            n1._trickle_interval_end()
            assert I_MIN_US <= n1.trickle.current_interval_us \
                <= n1.trickle.max_interval_us

    # one timer serves the send point and then the interval end, so a reset
    # withdraws exactly one pending event and never one that already fired
    def test_reset_before_send_point_cancels_one_event(self, monkeypatch):
        _, n1, _ = self.joined_sensor()
        cancels = count_cancels(monkeypatch)
        n1._trickle_reset()
        assert [event.action for event in cancels] == [n1._trickle_fire]

    def test_reset_after_send_point_cancels_only_the_interval_end(
            self, monkeypatch):
        sim, n1, metrics = self.joined_sensor()
        sim.run_until(n1.trickle.t_us)
        assert metrics.dio_count == 1
        cancels = count_cancels(monkeypatch)
        n1._trickle_reset()
        assert [event.action for event in cancels] == \
            [n1._trickle_interval_end]


class TestDis:
    # a node runs the DIS timer while detached and trickle while joined
    def test_joining_replaces_the_pending_dis(self):
        sim, _, nodes, metrics = make_net(line_positions(2), with_sink=False)
        n1 = nodes[1]
        n1.start()
        n1.on_dio(DioMessage(0, ROOT_RANK))
        assert n1.joined
        sim.run_until(to_us(n1.proto.dis_period_s * 1.1) + 1)
        assert metrics.dis_count == 0
        assert metrics.dio_count >= 1

    def test_detaching_replaces_the_pending_trickle(self):
        sim, _, nodes, metrics = make_net(line_positions(2), with_sink=False)
        n1 = nodes[1]
        n1.start()
        n1.on_dio(DioMessage(0, ROOT_RANK))
        expire(n1, 0)
        assert not n1.joined
        sim.run_until(to_us(60.0))
        assert metrics.dio_count == 0
        assert metrics.dis_count > 0

    def test_isolated_node_solicits_forever_and_delivers_nothing(self):
        cfg = ScenarioConfig(node_count=2, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=120.0,
                             warmup_s=10.0,
                             traffic_classes=("high-critical",))
        positions = {0: (0.0, 0.0), 1: (500.0, 0.0)}
        result = run_scenario(cfg, positions=positions)
        assert result.metrics.dis_count >= 10
        assert not result.nodes[1].joined
        assert result.metrics.pdr() == 0.0
        assert result.metrics.drops_by_cause("no-route") == \
            result.metrics.total_sent()
        assert result.metrics.convergence_us is None


class TestForwarding:
    def test_single_hop_delivery(self):
        cfg = ScenarioConfig(node_count=2, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=120.0,
                             warmup_s=10.0,
                             traffic_classes=("high-critical",))
        result = run_scenario(cfg, positions=line_positions(2))
        assert result.metrics.pdr() == 1.0
        assert result.metrics.total_sent() > 0

    def test_three_hop_line_packets_carry_hop_count(self):
        cfg = ScenarioConfig(node_count=4, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=200.0,
                             warmup_s=30.0,
                             traffic_classes=("high-critical",))
        result = run_scenario(cfg, positions=line_positions(4), trace=True)
        deliveries = [r for r in result.trace.records if r[1] == "deliver"]
        far = [r for r in deliveries if r[3].startswith("3-")]   # pkt
        assert far and all(r[4] == 3 for r in far)               # hops

    def test_unjoined_generation_is_a_no_route_drop(self):
        sim, _, nodes, metrics = make_net(line_positions(2))
        nodes[1].app_generate()
        assert metrics.drops_by_cause("no-route") == 1
        assert metrics.total_sent() == 1

    def test_queue_overflow_tail_drop(self):
        proto = ProtocolConfig(queue_capacity=2)
        sim, _, nodes, metrics = make_net(line_positions(2), proto=proto)
        n1 = nodes[1]
        n1.on_dio(DioMessage(0, ROOT_RANK))
        for _ in range(5):
            n1.app_generate()
        assert metrics.drops_by_cause("queue-overflow") == 2

    def test_ttl_exhaustion_drops_far_traffic(self):
        proto = {"ttl": 2}
        cfg = ScenarioConfig(node_count=5, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=300.0,
                             warmup_s=60.0,
                             traffic_classes=("high-critical",))
        cfg.protocol.ttl = proto["ttl"]
        result = run_scenario(cfg, positions=line_positions(5))
        assert result.metrics.drops_by_cause("ttl") > 0
        assert result.metrics.total_delivered() > 0

    def test_conservation_holds_even_with_drops(self):
        cfg = ScenarioConfig(node_count=5, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=300.0,
                             warmup_s=60.0,
                             traffic_classes=("high-critical",))
        cfg.protocol.ttl = 2
        result = run_scenario(cfg, positions=line_positions(5))
        m = result.metrics
        total_drops = sum(m.drops_by_cause(c) for c in
                          ("no-route", "mac-failure", "queue-overflow", "ttl"))
        assert m.total_delivered() + total_drops == m.total_sent()


class TestParentExpiry:
    def test_silent_parent_expires_with_flat_window(self):
        proto = ProtocolConfig(parent_expiry_trickle_factor=0.0,
                               parent_expiry_floor_s=100.0)
        sim, _, nodes, metrics = make_net(line_positions(2), proto=proto,
                                          with_sink=False)
        n1 = nodes[1]
        n1.start()
        n1.on_dio(DioMessage(0, ROOT_RANK))
        assert n1.joined
        sim.run_until(to_us(150.0))
        assert not n1.joined
        assert n1.rank == INFINITE_RANK
        assert metrics.dis_count > 0

    def test_purge_reselects_after_selection_settled(self):
        # the repeated DIO re-evaluates to an unchanged (rank, parent), so
        # only the purge itself can make the node look at its inputs again
        proto = ProtocolConfig(parent_expiry_trickle_factor=0.0,
                               parent_expiry_floor_s=100.0)
        sim, _, nodes, _ = make_net(line_positions(2), proto=proto,
                                    with_sink=False)
        n1 = nodes[1]
        n1.start()
        n1.on_dio(DioMessage(0, ROOT_RANK))
        n1.on_dio(DioMessage(0, ROOT_RANK))
        assert not n1._dirty
        sim.run_until(to_us(150.0))
        assert not n1.candidates
        assert not n1.joined

    def test_adaptive_window_keeps_parent_during_trickle_backoff(self):
        # defaults: expiry stretches with the trickle interval, so a healthy
        # but quiet parent is not purged
        cfg = ScenarioConfig(node_count=9, topology="grid", objective="of0",
                             rx_success_ratio=1.0, grid_spacing_m=60.0,
                             duration_s=600.0, warmup_s=60.0,
                             traffic_classes=())
        result = run_scenario(cfg)
        assert all(snap.joined for snap in result.nodes.values())


class TestReselectSkip:
    """Skipping a re-evaluation whose inputs did not move changes nothing."""

    @staticmethod
    def run(monkeypatch, forced, link_rx=None, **overrides):
        evaluations = []
        reselect = Node._reselect

        def counted(self):                  # a call that will evaluate
            if self._dirty:
                evaluations.append(self.id)
            return reselect(self)
        monkeypatch.setattr(Node, "_reselect", counted)
        if forced:
            def always_evaluate(self):
                self._dirty = True
                return counted(self)
            monkeypatch.setattr(Node, "_reselect", always_evaluate)
        cfg = ScenarioConfig(node_count=30, topology="random",
                             duration_s=600.0, warmup_s=60.0, seed=2,
                             **overrides)
        result = run_scenario(cfg, link_rx=link_rx, trace=True)
        monkeypatch.undo()
        return result_to_row(result), result.trace.records, len(evaluations)

    @pytest.mark.parametrize("objective", ["of0", "etx"])
    @pytest.mark.parametrize("rx", [0.8, 1.0])
    def test_same_rows_and_traces_as_always_evaluating(self, monkeypatch,
                                                       objective, rx):
        shipped = self.run(monkeypatch, False, objective=objective,
                           rx_success_ratio=rx)
        forced = self.run(monkeypatch, True, objective=objective,
                          rx_success_ratio=rx)
        assert shipped[:2] == forced[:2]
        assert shipped[2] < forced[2]

    def test_same_with_per_link_ratios(self, monkeypatch):
        case = dict(objective="etx", rx_success_ratio=0.9)
        shipped = self.run(monkeypatch, False, mixed_link_rx(), **case)
        forced = self.run(monkeypatch, True, mixed_link_rx(), **case)
        assert shipped[:2] == forced[:2]
        assert shipped[2] < forced[2]


class TestCachedThroughCost:
    """Each candidate's cached value equals a fresh pricing whenever
    selection may read it: under MRHOF its cost and the current link ETX,
    under OF0 the rank through it.  The forced runs of TestReselectSkip read
    the same cache, so only a check against an independent pricing pins the
    cache itself."""

    @staticmethod
    def run(monkeypatch, objective, fresh, link_rx=None):
        """Check every cached value against fresh(node, nid, c); returns
        each fresh value."""
        priced = []
        reselect = Node._reselect

        def checked(self):
            for nid, c in self.candidates.items():
                value = fresh(self, nid, c)
                assert (self.id, nid, c.through) == (self.id, nid, value)
                priced.append(value)
            return reselect(self)
        monkeypatch.setattr(Node, "_reselect", checked)
        cfg = ScenarioConfig(node_count=30, topology="random",
                             objective=objective, rx_success_ratio=0.8,
                             duration_s=600.0, warmup_s=60.0, seed=2)
        run_scenario(cfg, link_rx=link_rx)
        return priced

    @pytest.mark.parametrize("mixed", [False, True])
    def test_cache_matches_fresh_pricing(self, monkeypatch, mixed):
        etxs = []

        def mrhof(node, nid, c):
            etx = node.link_etx.get(nid, ETX_INITIAL)
            etxs.append(etx)
            return (MAX_PATH_COST if c.cost is None or c.cost >= MAX_PATH_COST
                    else mrhof_path_cost(c.cost, etx))
        self.run(monkeypatch, "etx", mrhof,
                 mixed_link_rx() if mixed else None)
        # the estimates moved off their initial value, so re-pricing was due
        assert len(set(etxs)) > 10

    def test_of0_cache_is_the_rank_through(self, monkeypatch):
        priced = self.run(monkeypatch, "of0",
                          lambda node, nid, c: of0_rank(c.rank))
        assert len(set(priced)) > 3


class TestRepeatedDio:
    """A DIO repeating its sender's rank and cost only refreshes
    last_heard: the candidate's value is already current."""

    @pytest.mark.parametrize("objective", ["of0", "etx"])
    def test_keeps_the_candidate_and_moves_only_last_heard(self, objective):
        sim, _, nodes, _ = make_net(line_positions(2), objective=objective)
        n1 = nodes[1]
        n1.on_dio(DioMessage(0, ROOT_RANK, 0))
        n1.on_dio(DioMessage(0, ROOT_RANK, 0))     # selection settles
        known = n1.candidates[0]
        values = (known.rank, known.cost, known.through)
        state = (n1.rank, n1.path_cost, n1.preferred_parent)
        counter = n1.trickle.counter
        assert not n1._dirty
        sim.run_until(SEC)                         # before trickle fires
        n1.on_dio(DioMessage(0, ROOT_RANK, 0))
        assert n1.candidates[0] is known
        assert known.last_heard == SEC
        assert (known.rank, known.cost, known.through) == values
        assert (n1.rank, n1.path_cost, n1.preferred_parent) == state
        assert not n1._dirty
        assert n1.trickle.counter == counter + 1

    def test_same_rank_with_a_new_cost_is_repriced_under_mrhof(self):
        _, _, nodes, _ = make_net(line_positions(3), objective="etx")
        n2 = nodes[2]
        n2.on_dio(DioMessage(1, 512, 256))
        etx = ETX_INITIAL
        assert n2.candidates[1].through == mrhof_path_cost(256, etx)
        n2.on_dio(DioMessage(1, 512, 384))
        assert n2.candidates[1].cost == 384
        assert n2.candidates[1].through == mrhof_path_cost(384, etx)
        assert (n2.preferred_parent, n2.path_cost) == \
            (1, mrhof_path_cost(384, etx))


RANKS = st.one_of(st.sampled_from([ROOT_RANK, 511, 512, 513,
                                   INFINITE_RANK - 1, INFINITE_RANK]),
                  st.integers(ROOT_RANK, INFINITE_RANK))
VALUES = st.one_of(st.sampled_from([0, MAX_PATH_COST - 1, MAX_PATH_COST]),
                   st.integers(0, MAX_PATH_COST))


class TestInlineFilter:
    """_reselect filters candidates inline; it must weigh exactly the ones
    _selectable accepts, since the rule is written in both places."""

    @settings(max_examples=100)
    @given(objective=st.sampled_from(["of0", "etx"]), rank=RANKS,
           candidates=st.dictionaries(st.integers(1, 40),
                                      st.tuples(RANKS, VALUES), max_size=8))
    def test_weighs_exactly_the_selectable_candidates(self, objective, rank,
                                                      candidates):
        _, _, nodes, _ = make_net(line_positions(2), objective=objective)
        node = nodes[1]
        node.rank = rank
        node.candidates = {nid: CandidateInfo(r, None, through, 0)
                           for nid, (r, through) in candidates.items()}
        expected = {nid: c.through for nid, c in node.candidates.items()
                    if node._selectable(c)}
        weighed = []

        def recorded(values, current=None):
            weighed.append(dict(values))
            return None                # selects nothing: no rank to check
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rplsim.rpl, "of0_select_parent", recorded)
            mp.setattr(rplsim.rpl, "mrhof_select_parent", recorded)
            node._dirty = True
            node._reselect()
        assert weighed == [expected]


class TestJoinedIsTheParent:
    """`joined` reads the parent alone: on every exit from selection a
    sensor's rank is INFINITE_RANK exactly when it has no parent."""

    @pytest.mark.parametrize("objective", ["of0", "etx"])
    def test_rank_is_infinite_exactly_without_a_parent(self, monkeypatch,
                                                       objective):
        exits = []
        reselect = Node._reselect

        def checked(self):
            consistent = reselect(self)
            assert (self.rank == INFINITE_RANK) == \
                (self.preferred_parent is None)
            exits.append(self.preferred_parent is None)
            return consistent
        monkeypatch.setattr(Node, "_reselect", checked)
        # lossy, with a short flat expiry window: parents expire and
        # nodes detach and rejoin
        proto = ProtocolConfig(parent_expiry_floor_s=20.0,
                               parent_expiry_trickle_factor=0.0,
                               housekeeping_period_s=1.0)
        cfg = ScenarioConfig(node_count=30, topology="random",
                             objective=objective, rx_success_ratio=0.5,
                             duration_s=300.0, warmup_s=5.0, seed=2,
                             protocol=proto)
        run_scenario(cfg)
        assert True in exits and False in exits


class TestLazyHousekeeping:
    """Waking only on the ticks that can purge purges on the same ticks, and
    so gives the same rows and traces, as waking on every tick."""

    @staticmethod
    def run(monkeypatch, polled, link_rx=None, **overrides):
        if polled:
            poll_every_tick(monkeypatch)
        wakes = record_wakes(monkeypatch)
        cfg = ScenarioConfig(node_count=30, topology="random",
                             duration_s=600.0, warmup_s=60.0, seed=2,
                             **overrides)
        result = run_scenario(cfg, link_rx=link_rx, trace=True)
        monkeypatch.undo()
        return result_to_row(result), result.trace.records, wakes

    def check(self, monkeypatch, link_rx=None, **overrides):
        row, records, wakes = self.run(monkeypatch, False, link_rx,
                                       **overrides)
        polled = self.run(monkeypatch, True, link_rx, **overrides)
        assert (row, records) == polled[:2]
        assert purges(wakes) == purges(polled[2])
        assert len(wakes) < len(polled[2])
        return purges(wakes)

    @pytest.mark.parametrize("objective", ["of0", "etx"])
    @pytest.mark.parametrize("rx", [0.8, 1.0])
    def test_same_rows_traces_and_purges_as_polling(self, monkeypatch,
                                                     objective, rx):
        self.check(monkeypatch, objective=objective, rx_success_ratio=rx)

    def test_same_with_per_link_ratios(self, monkeypatch):
        self.check(monkeypatch, mixed_link_rx(), objective="etx",
                   rx_success_ratio=0.9)

    def test_same_with_short_expiry_and_fine_grid(self, monkeypatch):
        proto = ProtocolConfig(parent_expiry_floor_s=20.0,
                               housekeeping_period_s=1.0)
        assert self.check(monkeypatch, objective="etx", rx_success_ratio=0.8,
                          protocol=proto)

    @staticmethod
    def quiet_neighbour_purge(monkeypatch, polled, shrink):
        """A joined node whose parent keeps speaking, while neighbour 7 (one
        hop worse) falls silent at 0 s.  At 200 s, with trickle backed off
        so far that 7 is not yet stale, `shrink` cuts the expiry to its
        20 s floor; returns the purges that follow."""
        if polled:
            poll_every_tick(monkeypatch)
        wakes = record_wakes(monkeypatch)
        proto = ProtocolConfig(parent_expiry_floor_s=20.0)
        sim, _, nodes, _ = make_net(line_positions(2), proto=proto,
                                    with_sink=False)
        n1 = nodes[1]
        n1.start()
        n1.on_dio(DioMessage(0, ROOT_RANK))
        n1.on_dio(DioMessage(7, ROOT_RANK + RANK_UNIT))
        for t in range(10, 200, 10):
            sim.schedule(to_us(t), None, None,
                         lambda: n1.on_dio(DioMessage(0, ROOT_RANK)))
        sim.run_until(to_us(200.0))
        assert 7 in n1.candidates and n1._expiry_us() > to_us(200.0)
        shrink(n1)
        sim.run_until(to_us(300.0))
        monkeypatch.undo()
        return purges(wakes)

    def test_trickle_reset_brings_the_purge_forward(self, monkeypatch):
        def solicited(node):
            node.on_dis(2)
            assert node.joined
        lazy = self.quiet_neighbour_purge(monkeypatch, False, solicited)
        assert [ids for _, _, ids in lazy] == [(7,)]
        assert lazy == self.quiet_neighbour_purge(monkeypatch, True,
                                                  solicited)

    def test_detach_brings_the_purge_of_worse_candidates_forward(
            self, monkeypatch):
        def orphaned(node):
            expire(node, 0)
            assert not node.joined and 7 in node.candidates
        lazy = self.quiet_neighbour_purge(monkeypatch, False, orphaned)
        assert [ids for _, _, ids in lazy] == [(7,)]
        assert lazy == self.quiet_neighbour_purge(monkeypatch, True, orphaned)
