"""Whole-run behavior: determinism, warmup alignment, OF equivalences."""

import hashlib
import json

import pytest

from rplsim.cli import result_to_row
from rplsim.engine import to_us
from rplsim.scenario import ScenarioConfig
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


# sha256 of (JSONL trace as write_jsonl writes it, result_to_row as sorted
# JSON) for one 40-node, 300 s, rx 0.8, seed-1 run per topology/objective
# pair; pins the event-by-event behaviour across commits
TRACE_DIGESTS = {
    ("random", "of0"): (
        "3ffd538bd00b2e8111c05d8b6f373e1c2f1c67b858a6686480f0fbadf8b01df5",
        "87269c252a35a7ad5dbea43bff08b362d3eba1e825e20742ae525916c7d08dc4"),
    ("random", "etx"): (
        "2c0d951f7f825d47d1e50e4a6428b32d43cac587de7dca4c87f240d8980619a9",
        "6fb2b363d88c800bb1775ed3cb707b585e611e7cbc5bb851f03a38011c73aef9"),
    ("grid", "of0"): (
        "f37b4b2306193a9c3040627a08dd78958eaaedfa94a1f369a72b1a4c437c58dd",
        "d7247c4c19097bc6313f7cc2931302832b55acbcbc5559b07dcd2ec6d9ee4852"),
    ("grid", "etx"): (
        "15bbe4c86d0f033d7c7aba4651f1d6fba967eb755e5c24d8ffb67efb7d8a14ae",
        "e0a1b2b57cf5ca60ef15ff6daf2e884bb3cb76faf858e51352e616f3a47a30ff"),
}


@pytest.mark.parametrize("topology,objective", sorted(TRACE_DIGESTS))
def test_trace_and_row_digests(topology, objective, tmp_path):
    cfg = ScenarioConfig(node_count=40, topology=topology, objective=objective,
                         rx_success_ratio=0.8, duration_s=300.0,
                         warmup_s=60.0, seed=1)
    result = run_scenario(cfg, trace=True)
    path = tmp_path / "trace.jsonl"
    result.trace.write_jsonl(str(path))
    row = json.dumps(result_to_row(result), sort_keys=True).encode()
    assert (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(row).hexdigest()) == \
        TRACE_DIGESTS[(topology, objective)]
