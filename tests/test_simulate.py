"""Whole-run behavior: determinism, warmup alignment, OF equivalences."""

import gc
import hashlib
import json
import math
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest

import rplsim.rpl
from oracles import check_run
from rplsim.cli import result_to_row
from rplsim.engine import Event, Simulator, derive_stream, to_us
from rplsim.medium import MediumConfig
from rplsim.rpl import ProtocolConfig
from rplsim.scenario import (ConfigError, ScenarioConfig, generate_topology,
                             radio_links)
from rplsim.simulate import run_scenario


class TestDeterminism:
    def test_different_seeds_change_the_run(self):
        base = dict(node_count=20, topology="random", objective="of0",
                    rx_success_ratio=0.8, duration_s=300.0, warmup_s=60.0)
        a = run_scenario(ScenarioConfig(seed=1, **base), trace=True)
        b = run_scenario(ScenarioConfig(seed=2, **base), trace=True)
        assert a.trace.records != b.trace.records


class TestMemory:
    def test_next_run_frees_a_dropped_run(self):
        # callbacks make a run's object graph cyclic; with the collector
        # off, only run_scenario's own collection can free the first run
        cfg = ScenarioConfig(node_count=10, topology="random", objective="etx",
                             rx_success_ratio=0.8, duration_s=120.0,
                             warmup_s=30.0, seed=3)
        gc.disable()
        try:
            first = weakref.ref(run_scenario(cfg, trace=True).trace)
            run_scenario(cfg)
            assert first() is None
        finally:
            gc.enable()

    def test_session_heap_is_frozen(self):
        # conftest.py freezes the collected session, so each run's opening
        # collection walks only what the tests made since; without the
        # freeze Tier-1 spends 13-19 s more in those collections
        assert gc.get_freeze_count() > 0


class TestWarmup:
    def test_first_sends_happen_after_warmup(self):
        cfg = ScenarioConfig(node_count=9, topology="grid", objective="of0",
                             rx_success_ratio=1.0, grid_spacing_m=60.0,
                             duration_s=200.0, warmup_s=60.0, seed=3)
        result = run_scenario(cfg, trace=True)
        sends = [r for r in result.trace.records if r[1] == "send"]
        assert sends
        assert all(r[0] > to_us(60.0) for r in sends)

    def test_low_critical_first_send_at_warmup_plus_period(self):
        cfg = ScenarioConfig(node_count=4, topology="grid", objective="of0",
                             rx_success_ratio=1.0, grid_spacing_m=60.0,
                             duration_s=700.0, warmup_s=60.0,
                             traffic_classes=("low-critical",))
        result = run_scenario(cfg, trace=True)
        sends = sorted(r[0] for r in result.trace.records if r[1] == "send")
        assert sends[0] == to_us(360.0)


class TestObjectiveEquivalence:
    def test_equal_hop_depths_under_perfect_reception(self):
        base = dict(node_count=20, topology="random",
                    rx_success_ratio=1.0, duration_s=300.0, warmup_s=60.0,
                    seed=5, traffic_classes=())
        of0 = run_scenario(ScenarioConfig(objective="of0", **base))
        etx = run_scenario(ScenarioConfig(objective="etx", **base))
        depths_of0 = sorted(of0.depth(nid) for nid in of0.nodes)
        depths_etx = sorted(etx.depth(nid) for nid in etx.nodes)
        assert depths_of0 == depths_etx

    def test_mrhof_tracks_path_cost(self):
        cfg = ScenarioConfig(node_count=10, topology="random", objective="etx",
                             rx_success_ratio=1.0, duration_s=300.0,
                             warmup_s=60.0, seed=8,
                             traffic_classes=("high-critical",))
        result = run_scenario(cfg)
        for snap in result.nodes.values():
            if snap.role == "sink":
                assert snap.path_cost == 0
            elif snap.joined:
                assert snap.path_cost is not None
                assert snap.path_cost >= 128 * result.depth(snap.id)


# a self-pair and an out-of-range pair name no radio link
@pytest.mark.parametrize("link_rx", [{(1, 2): 7.0}, {(1, 2): -1.0},
                                     {(1, 2): math.nan}, {(1, 999): 0.5},
                                     {(1, 1): 0.0}, {(1, 3): 0.0},
                                     {(1, 2): True}, {(1, 2): False}])
def test_bad_link_rx_is_refused(link_rx):
    cfg = ScenarioConfig(node_count=9, topology="grid", objective="etx",
                         rx_success_ratio=0.8, duration_s=120.0, warmup_s=30.0)
    with pytest.raises(ConfigError,
                       match=r"^link_rx\[\(1, (1|2|3|999)\)\]: "):
        run_scenario(cfg, link_rx=link_rx)


def run_positions(cfg):
    """The positions run_scenario gives cfg's nodes when it is given none."""
    return generate_topology(cfg, derive_stream(cfg.seed, "topology"))


def links_only(cfg, link_rx):
    """The entries of link_rx that name a radio link of cfg's run."""
    links = radio_links(run_positions(cfg), cfg.medium.tx_range_m)
    return {(a, b): ratio for (a, b), ratio in link_rx.items()
            if b in links[a]}


def per_link_ratios(cfg, ratios):
    """One ratio per radio link of cfg's run, drawn from `ratios` by a stream
    seeded with cfg.seed that draws for every node pair in order."""
    rng = random.Random(cfg.seed)
    n = cfg.node_count
    return links_only(cfg, {(a, b): rng.choice(ratios)
                            for a in range(n) for b in range(a + 1, n)})


# Each case is one traced 300 s run with warmup 60 s unless it says
# otherwise: the ScenarioConfig fields, plus the ratios its per-link ratios
# are drawn from (or None).  The first four are 40-node, rx 0.8, seed-1 runs, one per
# topology/objective pair; the others pin a zero ACK turnaround, a near-zero
# backoff window, a short parent expiry with frequent housekeeping, per-link
# ratios, a lossy, congested run whose trace holds every record shape:
# detaches (a null parent) and all four drop causes, its OF0 twin (with a
# flat expiry window, so parents expire and nodes detach), and two lossy
# 30-node runs whose data frames are lost, whose ACKs are lost and whose
# receivers are on air when an ACK is due, so every way an ACK timeout comes
# is pinned.
TRACE_CASES = {
    "random-of0": (dict(topology="random", objective="of0"), None),
    "random-etx": (dict(topology="random", objective="etx"), None),
    "grid-of0": (dict(topology="grid", objective="of0"), None),
    "grid-etx": (dict(topology="grid", objective="etx"), None),
    "ack-turnaround-0": (
        dict(topology="grid", objective="etx", seed=3,
             medium=MediumConfig(ack_turnaround_s=0.0)), None),
    "ack-turnaround-0-backoff-1ms": (
        dict(topology="random", objective="of0", rx_success_ratio=1.0,
             seed=4, medium=MediumConfig(ack_turnaround_s=0.0,
                                         backoff_window_s=0.001)), None),
    "expiry-20s-housekeeping-1s": (
        dict(topology="random", objective="etx", rx_success_ratio=0.9,
             node_count=30, seed=6,
             protocol=ProtocolConfig(parent_expiry_floor_s=20.0,
                                     housekeeping_period_s=1.0)), None),
    "per-link-ratios": (
        dict(topology="random", objective="etx", node_count=30, seed=7),
        (0.6, 0.8, 1.0)),
    "every-record-shape": (
        dict(topology="random", objective="etx", node_count=30,
             rx_success_ratio=0.5, warmup_s=5.0, seed=2,
             medium=MediumConfig(bitrate_bps=20000, ack_timeout_s=0.02),
             protocol=ProtocolConfig(parent_expiry_floor_s=20.0,
                                     housekeeping_period_s=1.0,
                                     queue_capacity=1, ttl=3)), None),
    "every-record-shape-of0": (
        dict(topology="random", objective="of0", node_count=30,
             rx_success_ratio=0.5, warmup_s=5.0, seed=2,
             medium=MediumConfig(bitrate_bps=20000, ack_timeout_s=0.02),
             protocol=ProtocolConfig(parent_expiry_floor_s=20.0,
                                     parent_expiry_trickle_factor=0.0,
                                     housekeeping_period_s=1.0,
                                     queue_capacity=1, ttl=3)), None),
    "lossy-random-etx": (
        dict(topology="random", objective="etx", node_count=30,
             rx_success_ratio=0.5), None),
    "lossy-grid-of0": (
        dict(topology="grid", objective="of0", node_count=30,
             rx_success_ratio=0.65), None),
}

# sha256 of (JSONL trace as write_jsonl writes it, result_to_row as sorted
# JSON) for each case; pins the event-by-event behaviour across commits
TRACE_DIGESTS = {
    "random-of0": (
        "5fbea3517606f19ab10cafb34900b1cb5ae5682042cbf9cb2dcc414ac5bc6a86",
        "87269c252a35a7ad5dbea43bff08b362d3eba1e825e20742ae525916c7d08dc4"),
    "random-etx": (
        "77513730d76a7d79a441635998895b33697997aa595e05bc46ee4a973bdad591",
        "6fb2b363d88c800bb1775ed3cb707b585e611e7cbc5bb851f03a38011c73aef9"),
    "grid-of0": (
        "ea3c3fac12729d7cf13a2ff99e36fe98a669374e69c2e59f0556a5fd9d473299",
        "d7247c4c19097bc6313f7cc2931302832b55acbcbc5559b07dcd2ec6d9ee4852"),
    "grid-etx": (
        "9f64b882ff8d0e77f46a05fcdbe0755dc6a434e6648714988bba7a28b6eb0957",
        "e0a1b2b57cf5ca60ef15ff6daf2e884bb3cb76faf858e51352e616f3a47a30ff"),
    "ack-turnaround-0": (
        "a568fd388d13630e450373539e91f4c114a442dcf31bf95ae5c12844e856d60b",
        "87862bf58b367f5f7d3af95a767b15565dbf91e1277c0b10edcc52145d24b4bb"),
    "ack-turnaround-0-backoff-1ms": (
        "0194c955e327fd04c6aa1cd401e89b1ee3917d38367d98bb8a737981572129d6",
        "21757f8ac2db0c4f1af6e8121a699032b43a4f2b85ca95f557066d9b6b82eee4"),
    "expiry-20s-housekeeping-1s": (
        "06fd4a73cb5f8d4c31bea52102829a5a88066daaad5845ffd672a874b41c0a0f",
        "c8cdb5b456967481f1e916affbb554070fefee2d47df2b6a40691a25e9126e68"),
    "per-link-ratios": (
        "b6ae9db597d16526ffc6f940632491f540462465aeb04c60b103e71682c79b0f",
        "e8e0f3a4c05da9d9486a7d60af80b784ad364b95552fd844b9becf95bfcf9b94"),
    "every-record-shape": (
        "8ab1ef261ba8a767eb4b93aef932a2f6fbf18f58a6d49fb7fc5ef36368ac1558",
        "f74a41a9f5bb26e1e970e2449268d78d860a5641cd14329eeb073ff2fa8737d9"),
    "every-record-shape-of0": (
        "d43b3114c060c5cf235ed726114575867425820b14c0a44370dfc5ec1e8704d8",
        "e80d4a9ee5127956f837acbd1248ee8cf83e1f3b6e4fc4545a540cacd81fd064"),
    "lossy-random-etx": (
        "2ff93b2705caaedf4daca0dfecb3d5c720cb716806382560e5194d5f58dbaba1",
        "c192221b10044bc3a601a00c70e479d5e378281d0be8924e9625ee2743500381"),
    "lossy-grid-of0": (
        "0669e99c9f7876a49c1510fd9ef9564371b2a2ff3aeb95ee70f9af28b58f01ec",
        "6be85a5970720a7acf103e0e99375a08493dc33f718f3872f75b2195ca76c471"),
}


# Work each of two cases does, pinned like its bytes: events processed,
# scheduled and cancelled, parent selections, ETX updates and frames sent by
# kind.  A change that adds or removes work re-pins them with a reason.
WORK_COUNTS = {
    "lossy-random-etx": dict(
        processed=5616, scheduled=5874, cancelled=170, selections=817,
        etx_updates=387, tx=dict(ack=535, data=1050, dio=304, dis=25)),
    "lossy-grid-of0": dict(
        processed=5159, scheduled=5348, cancelled=101, selections=84,
        etx_updates=0, tx=dict(ack=677, data=1032, dio=184, dis=29)),
}


def case_config(case):
    """The ScenarioConfig of TRACE_CASES[case]."""
    values = dict(node_count=40, rx_success_ratio=0.8, duration_s=300.0,
                  warmup_s=60.0, seed=1)
    values.update(TRACE_CASES[case][0])
    return ScenarioConfig(**values)


def run_trace_case(case):
    """The traced run of TRACE_CASES[case]."""
    cfg, ratios = case_config(case), TRACE_CASES[case][1]
    link_rx = per_link_ratios(cfg, ratios) if ratios else None
    return run_scenario(cfg, link_rx=link_rx, trace=True)


def digests(result, tmp_path):
    """The run's pair of TRACE_DIGESTS."""
    path = tmp_path / "trace.jsonl"
    result.trace.write_jsonl(str(path))
    row = json.dumps(result_to_row(result), sort_keys=True).encode()
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(row).hexdigest())


@pytest.mark.parametrize("case", sorted(TRACE_DIGESTS))
def test_trace_and_row_digests(case, tmp_path):
    result = run_trace_case(case)
    assert digests(result, tmp_path) == TRACE_DIGESTS[case]
    assert check_run(result) == []


def rx_names_first_frame_of_its_kind(result):
    # a frame that an earlier tx aired, by one node with one kind, so only
    # the rx's time, the end of its frame's latest airing, can give it away
    kind, first, planted = {}, {}, []
    for rec in result.trace.records:
        if rec[1] == "tx":
            kind[rec[4]] = rec[3]
            first.setdefault(rec[3], rec[4])
        elif rec[1] == "rx":
            rec = (*rec[:3], first[kind[rec[3]]])
        planted.append(rec)
    result.trace.records = planted


def drop_first_deliver(result):
    records = result.trace.records
    records.remove(next(rec for rec in records if rec[1] == "deliver"))


def detach_a_parent(result):
    # the parent of a joined sensor whose parent is not the sink
    child = next(node for node in result.nodes.values()
                 if node.preferred_parent not in (None, 0))
    result.nodes[child.preferred_parent].preferred_parent = None


def loop_a_parent(result):
    # the parent of a joined sensor, a sensor that heard it, takes it as its
    # own parent
    nodes = result.nodes
    child = next(node for node in nodes.values()
                 if node.preferred_parent not in (None, 0)
                 and node.id in nodes[node.preferred_parent].candidates)
    nodes[child.preferred_parent].preferred_parent = child.id


def adopt_an_unheard_parent(result):
    # a joined sensor that never heard the sink takes it as its parent
    child = next(node for node in result.nodes.values()
                 if node.preferred_parent not in (None, 0)
                 and 0 not in node.candidates)
    child.preferred_parent = 0


def raise_cpu(result):
    result.ledgers[1].cpu_us += 1


def move_lpm_to_tx(result):
    # cpu + lpm is still the elapsed time; only the trace can tell
    ledger = result.ledgers[1]
    ledger.tx_us += 1
    ledger.cpu_us += 1
    ledger.lpm_us -= 1


# A defect planted in a finished run, and the oracles that must see it
PLANTED = {
    "rx-names-first-frame-of-its-kind": (rx_names_first_frame_of_its_kind,
                                         {"check_frames"}),
    "first-deliver-dropped": (drop_first_deliver,
                              {"check_packets", "check_replay"}),
    "parent-detached": (detach_a_parent, {"check_tree"}),
    "parent-loop": (loop_a_parent, {"check_tree"}),
    "parent-unheard": (adopt_an_unheard_parent, {"check_tree"}),
    "cpu-raised": (raise_cpu, {"check_energy", "check_replay"}),
    "lpm-moved-to-tx": (move_lpm_to_tx, {"check_replay"}),
}


@pytest.mark.parametrize("defect", sorted(PLANTED))
def test_check_run_sees_a_planted_defect(defect):
    plant, oracles = PLANTED[defect]
    result = run_trace_case("lossy-random-etx")
    plant(result)
    assert {problem.split(":", 1)[0] for problem in check_run(result)} \
        == oracles


@pytest.mark.parametrize("case", sorted(WORK_COUNTS))
def test_work_counts(case, monkeypatch):
    calls = Counter()

    def count(owner, name, key):
        call = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return call(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    count(Simulator, "schedule", "scheduled")
    count(Event, "cancel", "cancelled")
    count(rplsim.rpl, "of0_select_parent", "selections")
    count(rplsim.rpl, "mrhof_select_parent", "selections")
    count(rplsim.rpl, "etx_update", "etx_updates")
    result = run_trace_case(case)
    tx = Counter(r[3] for r in result.trace.records if r[1] == "tx")
    assert dict(processed=result.nodes[0].sim.events_processed,
                scheduled=calls["scheduled"], cancelled=calls["cancelled"],
                selections=calls["selections"],
                etx_updates=calls["etx_updates"],
                tx=dict(sorted(tx.items()))) == WORK_COUNTS[case]


# Moves of every position that keep each pair's distance, or that scale
# positions and radio range together, keep every radio link.  A run reads
# positions only through scenario.radio_links, so it gives the same bytes.
# Each move is exact in floating point except translation, which may round
# a distance.
GEOMETRY = {    # name: (the move of one position, the range's factor)
    "mirror": (lambda x, y: (-x, y), 1),
    "rotate-90": (lambda x, y: (-y, x), 1),
    "translate": (lambda x, y: (x + 1000, y - 1000), 1),
    "double": (lambda x, y: (2 * x, 2 * y), 2),
}


@pytest.mark.parametrize("relation", sorted(GEOMETRY))
@pytest.mark.parametrize("case", sorted(WORK_COUNTS))
def test_geometry_keeps_rows_and_traces(case, relation, tmp_path):
    cfg = case_config(case)
    move, factor = GEOMETRY[relation]
    positions = {nid: move(x, y) for nid, (x, y) in run_positions(cfg).items()}
    cfg = replace(cfg, medium=replace(
        cfg.medium, tx_range_m=factor * cfg.medium.tx_range_m))
    result = run_scenario(cfg, positions=positions, trace=True)
    assert digests(result, tmp_path) == TRACE_DIGESTS[case]


# A link_rx that gives every radio link the run's own ratio sets what the
# run would use anyway, so rows and traces keep their bytes; each link is
# named once, (a, b) with a < b, so the reverse way must take the same ratio.
@pytest.mark.parametrize("case", sorted(WORK_COUNTS))
def test_uniform_link_rx_keeps_rows_and_traces(case, tmp_path):
    cfg = case_config(case)
    link_rx = per_link_ratios(cfg, [cfg.rx_success_ratio])
    result = run_scenario(cfg, link_rx=link_rx, trace=True)
    assert digests(result, tmp_path) == TRACE_DIGESTS[case]
