"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The paper-grid runs
(criteria 4 and 8) share one module-scoped fixture so the 120 simulations
execute once.  The heavy runs go through a process pool with one worker per
core; each worker returns only its small result, in grid order.
"""

import hashlib
import multiprocessing
import os
import pathlib
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import pytest

from oracles import (bfs_hops, check_packets, dijkstra_etx, disk_edges,
                     replay_energy, unicast_expectation)
from rplsim import cli
from rplsim.cli import append_rows, load_sweep, result_to_row, sweep_tasks
from rplsim.engine import derive_stream, to_us
from rplsim.scenario import (ScenarioConfig, generate_random_topology,
                             next_send_time, radio_links, scenario_from_dict)
from rplsim.simulate import run_scenario

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

# sha256 of the paper grid's CSV as `rplsim sweep --spec
# configs/paper_sweep.json` writes it; pins the rows across commits
PAPER_GRID_SHA256 = \
    "e35e1edd39766954c8dbe798a3686ab037864b52e5a0e0548f0bbf421a760af2"
# sha256 of what the CLI derives from those rows: the sweep's summary, and
# `rplsim plot-data` of the rows for each figure
DERIVED_SHA256 = {
    "summary":
        "6798eb9abee94282c89808615dd2f74ecbe7cfe79c398c3aa8060bcec91037c3",
    "pdr":
        "a3d14893ea44df0d79187f53a2f86b9934c57ca42c5786831a39642be5aaaac2",
    "power":
        "7da040519522ff82637730783b5333bc3e2db3dff1bf443fba84532a69d40ab0",
}


def shipped_sweep(name):
    """The scenarios of configs/<name>.json, as `rplsim sweep` expands them."""
    for raw in sweep_tasks(load_sweep(str(CONFIGS / f"{name}.json"))):
        yield scenario_from_dict(raw)


def run_cells(work, cfgs):
    """[work(cfg) for cfg in cfgs], spread over one worker per core."""
    with ProcessPoolExecutor(os.cpu_count(),
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        return list(pool.map(work, cfgs))


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    print(f"criterion {number:2d} ({name}): PASS")


def oracle_graphs(count=50):
    """50 seeded random connected layouts with 5..10 nodes each."""
    graphs = []
    for i in range(count):
        node_count = 5 + (i % 6)
        cfg = ScenarioConfig(node_count=node_count, topology="random",
                             objective="of0", rx_success_ratio=1.0,
                             area_side_m=250.0, duration_s=180.0,
                             warmup_s=0.0, seed=1000 + i,
                             traffic_classes=())
        positions = generate_random_topology(
            cfg, derive_stream(cfg.seed, "topology"))
        graphs.append((cfg, positions))
    return graphs


# --------------------------------------------------------------- criterion 1

def test_criterion_1_determinism():
    with criterion(1, "determinism"):
        cfg = ScenarioConfig(node_count=40, topology="random",
                             objective="etx", rx_success_ratio=0.8,
                             duration_s=900.0, warmup_s=60.0, seed=7)
        first = run_scenario(cfg, trace=True)
        second = run_scenario(cfg, trace=True)
        row_a, row_b = result_to_row(first), result_to_row(second)
        assert row_a == row_b
        assert first.trace.records == second.trace.records
        assert first.trace.records


# --------------------------------------------------------------- criterion 2

def of0_bfs_failures(graph):
    cfg, positions = graph
    result = run_scenario(cfg, positions=positions)
    hops = bfs_hops(positions, cfg.medium.tx_range_m)
    failures = []
    for nid, snap in result.nodes.items():
        if snap.rank >= 0xFFFF:
            failures.append(f"seed={cfg.seed} node {nid} never joined")
        elif snap.rank // 256 - 1 != hops[nid]:
            failures.append(f"seed={cfg.seed} node {nid}: rank {snap.rank} "
                            f"vs bfs {hops[nid]}")
    return failures


def test_criterion_2_of0_bfs_oracle():
    with criterion(2, "OF0 rank == BFS depth"):
        failures = sum(run_cells(of0_bfs_failures, oracle_graphs()), [])
        assert not failures, "\n".join(failures)


# --------------------------------------------------------------- criterion 3

def mrhof_dijkstra_failures(graph):
    cfg, positions = graph
    link_rng = random.Random(90_000 + cfg.seed)
    link_rx = {}
    for a, nbrs in disk_edges(positions, cfg.medium.tx_range_m).items():
        for b in nbrs:
            if a < b:
                link_rx[(a, b)] = link_rng.choice((0.8, 1.0))
    run_cfg = ScenarioConfig(
        node_count=cfg.node_count, topology="random", objective="etx",
        rx_success_ratio=1.0, area_side_m=cfg.area_side_m,
        duration_s=600.0, warmup_s=10.0, seed=cfg.seed,
        traffic_classes=("high-critical",))
    result = run_scenario(run_cfg, positions=positions, link_rx=link_rx)
    optimal = dijkstra_etx(positions, cfg.medium.tx_range_m, link_rx)
    failures = []
    for nid, snap in result.nodes.items():
        if snap.role == "sink":
            continue
        if not snap.joined:
            failures.append(f"seed={cfg.seed} node {nid} not joined")
            continue
        depth = result.depth(nid)
        slack = 192 * depth
        target = 128 * optimal[nid]
        if abs(snap.path_cost - target) > slack:
            failures.append(f"seed={cfg.seed} node {nid}: cost "
                            f"{snap.path_cost} vs dijkstra {target:.1f} "
                            f"(slack {slack})")
    return failures


def test_criterion_3_mrhof_dijkstra_proximity():
    with criterion(3, "MRHOF cost near Dijkstra optimum"):
        failures = sum(run_cells(mrhof_dijkstra_failures, oracle_graphs()), [])
        assert not failures, "\n".join(failures)


# ---------------------------------------------------- criteria 4 and 8 fixture

def check_tree(result):
    sink = 0
    for nid, snap in result.nodes.items():
        if not snap.joined or snap.role == "sink":
            continue
        parent = result.nodes[snap.preferred_parent]
        if not parent.joined:
            return f"node {nid} has unjoined parent {parent.id}"
        advertised = snap.candidates[snap.preferred_parent].rank
        if snap.rank <= advertised:
            return (f"node {nid} rank {snap.rank} <= parent advertised "
                    f"rank {advertised}")
        depth = result.depth(nid)
        if depth is None:
            return f"node {nid} parent chain does not reach the sink"
        if depth > len(result.nodes) - 1:
            return f"node {nid} parent chain too long"
    assert result.nodes[sink].role == "sink"
    return None


def check_energy(result):
    for nid, ledger in result.ledgers.items():
        if ledger.cpu_us + ledger.lpm_us != result.elapsed_us:
            return f"node {nid}: cpu+lpm != duration"
        if ledger.tx_us + ledger.rx_us > result.elapsed_us:
            return f"node {nid}: radio time exceeds duration"
    return None


def check_replay(result):
    cfg = result.config
    replayed = replay_energy(result.trace.records, cfg.medium.bitrate_bps,
                             to_us(cfg.protocol.cpu_process_s))
    for nid, ledger in result.ledgers.items():
        got = replayed[nid]
        if (got["tx_us"], got["rx_us"], got["cpu_us"]) != \
                (ledger.tx_us, ledger.rx_us, ledger.cpu_us):
            return f"node {nid}: replay mismatch {got}"
    return None


def paper_grid_cell(cfg):
    result = run_scenario(cfg, trace=True)
    return {
        "cell": f"{cfg.topology}/{cfg.objective}/rx{cfg.rx_success_ratio}"
                f"/n{cfg.node_count}/s{cfg.seed}",
        "tree": check_tree(result),
        "energy": check_energy(result),
        "replay": check_replay(result),
        "packets": check_packets(result),
        "row": result_to_row(result),
    }


@pytest.fixture(scope="module")
def paper_grid_runs():
    return run_cells(paper_grid_cell, shipped_sweep("paper_sweep"))


def test_criterion_4_loop_freedom(paper_grid_runs):
    with criterion(4, "parent graph is a sink-rooted tree on the full grid"):
        assert len(paper_grid_runs) == 120
        problems = [f"{c['cell']}: {c['tree']}" for c in paper_grid_runs
                    if c["tree"] is not None]
        assert not problems, "\n".join(problems)


def test_paper_grid_csv_digest(paper_grid_runs, tmp_path):
    path = tmp_path / "paper_grid.csv"
    append_rows(str(path), [c["row"] for c in paper_grid_runs])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PAPER_GRID_SHA256


def test_paper_grid_derived_digests(paper_grid_runs, tmp_path, monkeypatch):
    """`rplsim sweep` of the paper grid, its runs replaced by the fixture's
    rows, then `rplsim plot-data` of its CSV for each figure."""
    rows = {(c["row"]["scenario_id"], c["row"]["seed"]): c["row"]
            for c in paper_grid_runs}
    monkeypatch.setattr(cli, "_sweep_worker", lambda cfg: (
        rows[cfg.scenario_id, str(cfg.seed)], None))
    out = tmp_path / "grid.csv"
    assert cli.main(["sweep", "--spec", str(CONFIGS / "paper_sweep.json"),
                     "--out", str(out)]) == 0
    paths = {"summary": tmp_path / "grid.csv.summary.csv"}
    for figure in ("pdr", "power"):
        paths[figure] = tmp_path / f"{figure}.csv"
        assert cli.main(["plot-data", "--in", str(out), "--figure", figure,
                         "--out", str(paths[figure])]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_GRID_SHA256
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()} == DERIVED_SHA256


# --------------------------------------------------------------- criterion 5

def test_criterion_5_perfect_channel_pdr():
    with criterion(5, "perfect-channel PDR == 1.0"):
        cfg = ScenarioConfig(node_count=20, topology="grid", objective="of0",
                             rx_success_ratio=1.0, grid_spacing_m=60.0,
                             duration_s=900.0, warmup_s=60.0, seed=1,
                             traffic_classes=("low-critical",))
        result = run_scenario(cfg)
        m = result.metrics
        assert m.total_sent() == 38        # 19 sensors x sends at 360 s, 660 s
        assert m.total_delivered() == 38
        assert m.pdr() == 1.0


# --------------------------------------------------------------- criterion 6

def directional_cell(cfg):
    result = run_scenario(cfg)
    return result.metrics.pdr(), result.avg_power_mw()


def test_criterion_6_directional_claim():
    with criterion(6, "OF0 vs ETX: PDR and power comparable (random, rx 0.8)"):
        cfgs = list(shipped_sweep("directional_sweep"))
        runs = {}
        for cfg, (pdr, power) in zip(cfgs, run_cells(directional_cell, cfgs)):
            assert (cfg.topology, cfg.rx_success_ratio) == ("random", 0.8)
            pdrs, powers = runs.setdefault(
                (cfg.node_count, cfg.objective), ([], []))
            pdrs.append(pdr)
            powers.append(power)
        print()
        for node_count in (20, 40, 60):
            cell = {}
            for objective in ("of0", "etx"):
                pdrs, powers = runs[(node_count, objective)]
                assert len(pdrs) == 10
                cell[objective] = (statistics.mean(pdrs),
                                   statistics.stdev(pdrs),
                                   statistics.mean(powers),
                                   statistics.stdev(powers))
                print(f"  n={node_count} {objective}: "
                      f"pdr={cell[objective][0]:.4f}±{cell[objective][1]:.4f} "
                      f"power={cell[objective][2]:.4f}"
                      f"±{cell[objective][3]:.4f} mW")
            pdr_of0, _, power_of0, _ = cell["of0"]
            pdr_etx, _, power_etx, _ = cell["etx"]
            assert pdr_of0 >= pdr_etx - 0.02, (
                f"n={node_count}: mean PDR of0 {pdr_of0:.4f} below "
                f"etx {pdr_etx:.4f} - 0.02")
            assert abs(power_of0 - power_etx) <= 0.15 * min(power_of0,
                                                            power_etx), (
                f"n={node_count}: power gap beyond 15% "
                f"({power_of0:.4f} vs {power_etx:.4f})")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_medium_statistics():
    with criterion(7, "medium reception and retry statistics"):
        from rplsim.engine import Simulator
        from rplsim.medium import FrameKind, Medium, MediumConfig, Outcome

        def microbench(rx):
            sim = Simulator()
            positions = {0: (0.0, 0.0), 1: (50.0, 0.0)}
            cfg = MediumConfig(backoff_window_s=0.004)
            links = radio_links(positions, cfg.tx_range_m, rx)
            medium = Medium(sim, cfg, links, 1)
            medium.set_receiver(1, lambda *_: None)
            return sim, medium

        sim, medium = microbench(0.8)
        delivered = [0]

        def on_done(outcomes):
            if outcomes[1] is Outcome.DELIVERED:
                delivered[0] += 1

        for _ in range(10_000):
            medium.broadcast(0, FrameKind.DIS, on_done=on_done)
        sim.run_until(to_us(300.0))
        fraction = delivered[0] / 10_000
        assert abs(fraction - 0.80) <= 0.02, f"delivery fraction {fraction}"

        sim, medium = microbench(0.8)
        attempts = []
        for _ in range(10_000):
            medium.unicast_with_ack(0, 1, None,
                                    lambda ok, a, t: attempts.append(a))
        sim.run_until(to_us(2000.0))
        assert len(attempts) == 10_000
        expected = unicast_expectation(0.8 * 0.8, 4)["mean_attempts"]
        mean_attempts = statistics.mean(attempts)
        assert abs(mean_attempts - expected) <= 0.02 * expected, (
            f"mean attempts {mean_attempts:.4f} vs expected {expected:.4f}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_energy_invariants(paper_grid_runs):
    with criterion(8, "energy partition and trace-replay equality"):
        problems = [f"{c['cell']}: {c['energy'] or c['replay']}"
                    for c in paper_grid_runs
                    if c["energy"] is not None or c["replay"] is not None]
        assert not problems, "\n".join(problems)


def test_paper_grid_packet_conservation(paper_grid_runs):
    """Each traced packet of the grid has one fate at most, after its send;
    the ones without are those the run left queued or on air."""
    problems = [f"{c['cell']}: {problem}" for c in paper_grid_runs
                for problem in c["packets"]]
    assert not problems, "\n".join(problems[:20])


# --------------------------------------------------------------- criterion 9

def test_criterion_9_traffic_law():
    with criterion(9, "traffic-class interval laws"):
        stream = derive_stream(321, "traffic", 5)
        gaps = [next_send_time("high-critical", 0, stream) / 1e6
                for _ in range(10_000)]
        assert all(5.0 <= g <= 15.0 for g in gaps)
        assert abs(statistics.mean(gaps) - 10.0) <= 0.2
        fixed = derive_stream(321, "traffic", 6)
        assert next_send_time("low-critical", 0, fixed) == to_us(300.0)
        assert next_send_time("low-critical", to_us(12.5), fixed) \
            == to_us(312.5)


# -------------------------------------------------------------- criterion 10

def test_criterion_10_scale_runtime():
    with criterion(10, "100-node, 900-virtual-second run under 60 s wall"):
        cfg = ScenarioConfig(node_count=100, topology="random",
                             objective="etx", rx_success_ratio=0.8,
                             duration_s=900.0, warmup_s=60.0, seed=1)
        start = time.perf_counter()
        run_scenario(cfg)
        elapsed = time.perf_counter() - start
        print(f"\n  wall clock: {elapsed:.2f}s")
        assert elapsed < 60.0
