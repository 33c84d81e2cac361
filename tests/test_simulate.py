"""Whole-run behavior: determinism, warmup alignment, OF equivalences."""

import gc
import hashlib
import json
import math
import random
import weakref

import pytest

from rplsim.cli import result_to_row
from rplsim.engine import to_us
from rplsim.medium import MediumConfig
from rplsim.rpl import ProtocolConfig
from rplsim.scenario import ConfigError, ScenarioConfig
from rplsim.simulate import run_scenario


def trace_bytes(result):
    return "\n".join(json.dumps(r, sort_keys=True)
                     for r in result.trace.records).encode()


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        cfg = ScenarioConfig(node_count=20, topology="random", objective="etx",
                             rx_success_ratio=0.8, duration_s=300.0,
                             warmup_s=60.0, seed=11)
        a = run_scenario(cfg, trace=True)
        b = run_scenario(cfg, trace=True)
        assert trace_bytes(a) == trace_bytes(b)
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
        assert trace_bytes(a) != trace_bytes(b)


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
        sends = [r for r in result.trace.records if r["ev"] == "send"]
        assert sends
        assert all(r["t"] > to_us(60.0) for r in sends)

    def test_low_critical_first_send_at_warmup_plus_period(self):
        cfg = ScenarioConfig(node_count=4, topology="grid", objective="of0",
                             rx_success_ratio=1.0, grid_spacing_m=60.0,
                             duration_s=700.0, warmup_s=60.0,
                             traffic_classes=("low-critical",))
        result = run_scenario(cfg, trace=True)
        sends = sorted(r["t"] for r in result.trace.records
                       if r["ev"] == "send")
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


@pytest.mark.parametrize("link_rx", [{(1, 2): 7.0}, {(1, 2): -1.0},
                                     {(1, 2): math.nan}, {(1, 999): 0.5}])
def test_bad_link_rx_is_refused(link_rx):
    cfg = ScenarioConfig(node_count=9, topology="grid", objective="etx",
                         rx_success_ratio=0.8, duration_s=120.0, warmup_s=30.0)
    with pytest.raises(ConfigError, match=r"^link_rx\[\(1, (2|999)\)\]: "):
        run_scenario(cfg, link_rx=link_rx)


def per_link_ratios(node_count, seed, ratios):
    """One ratio per node pair, drawn from `ratios` by a seeded stream."""
    rng = random.Random(seed)
    return {(a, b): rng.choice(ratios)
            for a in range(node_count) for b in range(a + 1, node_count)}


# Each case is one traced 300 s run with warmup 60 s unless it says
# otherwise: the ScenarioConfig fields, plus the per-link ratios it runs with
# (or None).  The first four are 40-node, rx 0.8, seed-1 runs, one per
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
        per_link_ratios(30, 7, (0.6, 0.8, 1.0))),
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


def run_trace_case(case):
    """The traced run of TRACE_CASES[case]."""
    fields, link_rx = TRACE_CASES[case]
    values = dict(node_count=40, rx_success_ratio=0.8, duration_s=300.0,
                  warmup_s=60.0, seed=1)
    values.update(fields)
    return run_scenario(ScenarioConfig(**values), link_rx=link_rx, trace=True)


@pytest.mark.parametrize("case", sorted(TRACE_DIGESTS))
def test_trace_and_row_digests(case, tmp_path):
    result = run_trace_case(case)
    path = tmp_path / "trace.jsonl"
    result.trace.write_jsonl(str(path))
    row = json.dumps(result_to_row(result), sort_keys=True).encode()
    assert (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(row).hexdigest()) == TRACE_DIGESTS[case]
