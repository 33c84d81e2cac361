"""RPL node behavior: joining, trickle, parent maintenance, forwarding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rplsim.rpl
from oracles import check_run, deliveries
from rplsim.engine import Event, to_us
from rplsim.objective import (ETX_INITIAL, INFINITE_RANK, MAX_PATH_COST,
                              RANK_UNIT, ROOT_RANK, mrhof_path_cost)
from rplsim.rpl import CandidateInfo, DioMessage, Node, ProtocolConfig
from rplsim.scenario import ScenarioConfig
from rplsim.simulate import run_scenario
from rplsim.telemetry import MetricsReport
from test_medium import make_medium

SEC = to_us(1.0)
I_MIN_US = to_us(4.096)


def make_net(positions, objective="of0", proto=None, with_sink=True):
    sim, medium, _ = make_medium(positions)
    proto = proto or ProtocolConfig()
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


@pytest.fixture(scope="class")
def ttl_line_run():
    """One traced run of a 5-node line whose TTL of 2 is too short for the
    far nodes' traffic to reach the sink."""
    cfg = ScenarioConfig(node_count=5, topology="random", objective="of0",
                         rx_success_ratio=1.0, duration_s=300.0,
                         warmup_s=60.0, traffic_classes=("high-critical",),
                         protocol=ProtocolConfig(ttl=2))
    return run_scenario(cfg, positions=line_positions(5), trace=True)


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
        paths = deliveries(result.trace.records)     # pid: (hops, latency)
        far = [hops for pid, (hops, _) in paths.items() if pid[:2] == "3-"]
        assert far and all(hops == 3 for hops in far)
        assert check_run(result) == []

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

    def test_ttl_exhaustion_drops_far_traffic(self, ttl_line_run):
        result = ttl_line_run
        assert result.metrics.drops_by_cause("ttl") > 0
        assert result.metrics.total_delivered() > 0

    def test_conservation_holds_even_with_drops(self, ttl_line_run):
        result = ttl_line_run
        m = result.metrics
        total_drops = sum(m.drops_by_cause(c) for c in
                          ("no-route", "mac-failure", "queue-overflow", "ttl"))
        assert m.total_delivered() + total_drops == m.total_sent()
        # the identity above holds by construction; the trace's can fail
        assert check_run(result) == []     # every oracle holds with TTL drops


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
