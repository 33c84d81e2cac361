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
from rplsim.cli import result_to_row
from rplsim.engine import Event, Simulator, derive_stream, to_us
from rplsim.medium import MediumConfig, in_range
from rplsim.rpl import ProtocolConfig
from rplsim.scenario import ConfigError, ScenarioConfig, generate_topology
from rplsim.simulate import run_scenario


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        cfg = ScenarioConfig(node_count=20, topology="random", objective="etx",
                             rx_success_ratio=0.8, duration_s=300.0,
                             warmup_s=60.0, seed=11)
        a = run_scenario(cfg, trace=True)
        b = run_scenario(cfg, trace=True)
        assert a.trace.records == b.trace.records
        assert a.metrics.pdr() == b.metrics.pdr()
        assert a.metrics.convergence_us == b.metrics.convergence_us
        for nid in a.ledgers:
            assert a.ledgers[nid].tx_us == b.ledgers[nid].tx_us
            assert a.ledgers[nid].cpu_us == b.ledgers[nid].cpu_us

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
                                     {(1, 1): 0.0}, {(1, 3): 0.0}])
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
    at = run_positions(cfg)
    return {(a, b): ratio for (a, b), ratio in link_rx.items()
            if a != b and in_range(at[a], at[b], cfg.medium)}


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
        "3ffd538bd00b2e8111c05d8b6f373e1c2f1c67b858a6686480f0fbadf8b01df5",
        "87269c252a35a7ad5dbea43bff08b362d3eba1e825e20742ae525916c7d08dc4"),
    "random-etx": (
        "2c0d951f7f825d47d1e50e4a6428b32d43cac587de7dca4c87f240d8980619a9",
        "6fb2b363d88c800bb1775ed3cb707b585e611e7cbc5bb851f03a38011c73aef9"),
    "grid-of0": (
        "f37b4b2306193a9c3040627a08dd78958eaaedfa94a1f369a72b1a4c437c58dd",
        "d7247c4c19097bc6313f7cc2931302832b55acbcbc5559b07dcd2ec6d9ee4852"),
    "grid-etx": (
        "15bbe4c86d0f033d7c7aba4651f1d6fba967eb755e5c24d8ffb67efb7d8a14ae",
        "e0a1b2b57cf5ca60ef15ff6daf2e884bb3cb76faf858e51352e616f3a47a30ff"),
    "ack-turnaround-0": (
        "7864dfc88b713419676f295c1ccfbcd7c9f1cc839fc5b7d299391744f8dad5b5",
        "87862bf58b367f5f7d3af95a767b15565dbf91e1277c0b10edcc52145d24b4bb"),
    "ack-turnaround-0-backoff-1ms": (
        "be74edadf3c8803bdde3482f66cad352b721fd8b85cce3b710156ee036e318de",
        "21757f8ac2db0c4f1af6e8121a699032b43a4f2b85ca95f557066d9b6b82eee4"),
    "expiry-20s-housekeeping-1s": (
        "706456858b46574b84043c8cecb8429ab58c6c0181371671cbf49092eb9aea99",
        "c8cdb5b456967481f1e916affbb554070fefee2d47df2b6a40691a25e9126e68"),
    "per-link-ratios": (
        "376b2aaae07208aaa1a02324bb9283366c67fa87a2a01e8225d5919bd0d87a70",
        "e8e0f3a4c05da9d9486a7d60af80b784ad364b95552fd844b9becf95bfcf9b94"),
    "every-record-shape": (
        "921f8844f199c60805cef366245da404589b83a2a3dea24977064233fc429c74",
        "f74a41a9f5bb26e1e970e2449268d78d860a5641cd14329eeb073ff2fa8737d9"),
    "every-record-shape-of0": (
        "45509295ef584e104be64db35ef8b502bc850684efad38f74c7dfd8638b28dd8",
        "e80d4a9ee5127956f837acbd1248ee8cf83e1f3b6e4fc4545a540cacd81fd064"),
    "lossy-random-etx": (
        "866cd73f64bcc4171f5572e5346f619594de4306f6e3e42d9df966c4e8e1cc51",
        "c192221b10044bc3a601a00c70e479d5e378281d0be8924e9625ee2743500381"),
    "lossy-grid-of0": (
        "402f67ee9237e67cecd580b82d0f517fd548ac65cd9b669e6f6e63e23465f084",
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
    assert digests(run_trace_case(case), tmp_path) == TRACE_DIGESTS[case]


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
# positions and radio range together, keep every radio link, so a run that
# reads positions only through its links gives the same bytes.  Each move is
# exact in floating point except translation, which may round a distance.
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
