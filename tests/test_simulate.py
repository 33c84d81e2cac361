"""Whole-run behavior: determinism, memory, warmup alignment, OF
equivalences, and the pinned runs every byte-keeping reference and
relation is checked on."""

import functools
import gc
import hashlib
import json
import math
import pathlib
import random
import sys
import tempfile
import weakref
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import pytest

import rplsim.rpl
from oracles import check_run, record_dict, trace_records
from rplsim.cli import result_to_row
from rplsim.engine import Event, Simulator, derive_stream, to_us
from rplsim.medium import MediumConfig
from rplsim.objective import (ETX_INITIAL, INFINITE_RANK, MAX_PATH_COST,
                              mrhof_path_cost, mrhof_rank, mrhof_select_parent,
                              of0_rank, of0_select_parent)
from rplsim.rpl import SENSOR, Node, ProtocolConfig
from rplsim.scenario import (ConfigError, ScenarioConfig, generate_topology,
                             radio_links)
from rplsim.simulate import RunResult, run_scenario
from rplsim.telemetry import (CPU, DROP_CAUSES, RX, TRACE_FIELDS, TX,
                              EnergyLedger, TraceRecorder, read_jsonl)


class TestDeterminism:
    def test_different_seeds_change_the_run(self):
        base = dict(node_count=20, topology="random", objective="of0",
                    rx_success_ratio=0.8, duration_s=300.0, warmup_s=60.0)
        a = run_scenario(ScenarioConfig(seed=1, **base), trace=True)
        b = run_scenario(ScenarioConfig(seed=2, **base), trace=True)
        assert trace_records(a.trace) != trace_records(b.trace)


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


class TestEnergyBooking:
    def test_ledgers_are_charged_once_per_rail_after_the_run(self,
                                                              monkeypatch):
        # radios count airtime and nodes processed packets while the run
        # goes; each ledger is charged from those counts once run_until is
        # off the stack
        run_until = Simulator.run_until.__code__
        charge = EnergyLedger.charge
        charges = []

        def recorded(self, state, duration_us):
            frame, inside = sys._getframe(1), False
            while frame is not None:
                inside |= frame.f_code is run_until
                frame = frame.f_back
            charges.append((self, state, inside))
            charge(self, state, duration_us)
        monkeypatch.setattr(EnergyLedger, "charge", recorded)
        cfg = ScenarioConfig(node_count=20, topology="random", objective="etx",
                             rx_success_ratio=0.8, duration_s=200.0,
                             warmup_s=60.0, seed=3)
        result = run_scenario(cfg, trace=True)
        assert not any(inside for _, _, inside in charges)
        assert len(charges) == 3 * cfg.node_count
        radios = result.nodes[0].medium.radios
        cpu_process_us = to_us(cfg.protocol.cpu_process_s)
        for nid, ledger in result.ledgers.items():
            radio, node = radios[nid], result.nodes[nid]
            assert ledger is radio.ledger
            assert sorted(state for led, state, _ in charges
                          if led is ledger) == sorted([TX, RX, CPU])
            assert (ledger.tx_us, ledger.rx_us, ledger.cpu_us) == (
                radio.tx_us, radio.rx_us,
                radio.tx_us + radio.rx_us + node.processed * cpu_process_us)
        assert all(radios[nid].rx_us > 0 for nid in result.ledgers)
        assert result.nodes[0].processed > 0
        assert check_run(result, trace_records(result.trace)) == []


class TestWarmup:
    def test_low_critical_first_send_at_warmup_plus_period(self):
        cfg = ScenarioConfig(node_count=4, topology="grid", objective="of0",
                             rx_success_ratio=1.0, grid_spacing_m=60.0,
                             duration_s=700.0, warmup_s=60.0,
                             traffic_classes=("low-critical",))
        result = run_scenario(cfg, trace=True)
        sends = sorted(r[0] for r in trace_records(result.trace)
                       if r[1] == "send")
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


# not a dict keyed by pairs: a bare id, a triple, a list of entries
MALFORMED_LINK_RX = [{1: 0.5}, {(1, 2, 3): 0.5}, [((1, 2), 0.5)]]


# a self-pair and an out-of-range pair name no radio link
@pytest.mark.parametrize("link_rx", [{(1, 2): 7.0}, {(1, 2): -1.0},
                                     {(1, 2): math.nan}, {(1, 999): 0.5},
                                     {(1, 1): 0.0}, {(1, 3): 0.0},
                                     {(1, 2): True}, {(1, 2): False},
                                     *MALFORMED_LINK_RX])
def test_bad_link_rx_is_refused(link_rx):
    cfg = ScenarioConfig(node_count=9, topology="grid", objective="etx",
                         rx_success_ratio=0.8, duration_s=120.0, warmup_s=30.0)
    match = (r"^link_rx: must be a dict keyed by \(a, b\) pairs of node ids$"
             if link_rx in MALFORMED_LINK_RX
             else r"^link_rx\[\(1, (1|2|3|999)\)\]: ")
    with pytest.raises(ConfigError, match=match):
        run_scenario(cfg, link_rx=link_rx)


# a row reports node_count nodes, so positions must place exactly those
@pytest.mark.parametrize("positions", [
    {0: (0.0, 0.0), 1: (50.0, 0.0)},
    {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (0.0, 50.0), 3: (50.0, 50.0)},
    {0: (0.0, 0.0), 1: (50.0, 0.0), 5: (0.0, 50.0)},
    {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (math.nan, 50.0)},
], ids=["short", "long", "gap", "nan"])
def test_bad_positions_are_refused(positions):
    cfg = ScenarioConfig(node_count=3, topology="random", objective="of0",
                         rx_success_ratio=1.0, duration_s=120.0, warmup_s=30.0)
    with pytest.raises(ConfigError, match=r"^positions: "):
        run_scenario(cfg, positions=positions)


def test_depth_is_none_off_the_tree():
    # a detached sensor, and sensors whose preferred parents form a loop,
    # reach no sink
    cfg = ScenarioConfig(node_count=5, topology="grid", objective="of0",
                         rx_success_ratio=1.0, duration_s=60.0, warmup_s=30.0)
    result = run_scenario(cfg)
    parents = {1: 0, 2: 3, 3: 2, 4: None}
    for nid, parent in parents.items():
        result.nodes[nid].preferred_parent = parent
    assert [result.depth(nid) for nid in range(5)] == [0, 1, None, None, None]


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


class Case(NamedTuple):
    """One pinned run: what it sets, and what it must give."""
    config: dict                # ScenarioConfig fields over the defaults
    ratios: tuple | None        # drawn from for per-link ratios, if any
    digests: tuple[str, str]    # sha256 of (trace, row), as digests() takes
    work: dict | None = None    # as shipped() counts it, where pinned
    covers: frozenset[str] = frozenset()    # facts the shipped run holds


# the facts a case can be chosen to cover: each trace record kind, each drop
# cause, "detach" (a parent record with a null parent) and "purge" (a
# housekeeping wake that purged a candidate)
EVERY_FACT = frozenset({*TRACE_FIELDS, *DROP_CAUSES, "detach", "purge"})

# Each case is one traced 40-node, rx 0.8, seed-1 run of 300 s with warmup
# 60 s unless its config says otherwise.  The digests pin the event-by-event
# behaviour across commits, and `covers` names what a case is kept for, so a
# change that loses it fails by the case's name and the missing fact.  The
# two lossy 30-node runs also lose data frames, lose ACKs and find receivers
# on air when an ACK is due, so every way an ACK timeout comes is pinned.
# Two cases also pin the work they do: events processed, scheduled and
# cancelled, parent selections, ETX updates and frames sent by kind.  A
# change that adds or removes work re-pins them with a reason.
CASES = {
    "random-of0": Case(
        dict(topology="random", objective="of0"), None,
        ("5fbea3517606f19ab10cafb34900b1cb5ae5682042cbf9cb2dcc414ac5bc6a86",
         "87269c252a35a7ad5dbea43bff08b362d3eba1e825e20742ae525916c7d08dc4")),
    "random-etx": Case(
        dict(topology="random", objective="etx"), None,
        ("77513730d76a7d79a441635998895b33697997aa595e05bc46ee4a973bdad591",
         "6fb2b363d88c800bb1775ed3cb707b585e611e7cbc5bb851f03a38011c73aef9")),
    "random-etx-rx1": Case(
        dict(topology="random", objective="etx", rx_success_ratio=1.0), None,
        ("92544f2fd495f1789d940eee088df6a469f9078ac7eeb3ce66199f3d6a025dc5",
         "7e0dcab11d64ec359e84f267d98e32476a8223a88d93de1ac19f59a2e915257a"),
        covers=frozenset({"purge"})),
    "grid-of0": Case(
        dict(topology="grid", objective="of0"), None,
        ("ea3c3fac12729d7cf13a2ff99e36fe98a669374e69c2e59f0556a5fd9d473299",
         "d7247c4c19097bc6313f7cc2931302832b55acbcbc5559b07dcd2ec6d9ee4852")),
    "grid-etx": Case(
        dict(topology="grid", objective="etx"), None,
        ("9f64b882ff8d0e77f46a05fcdbe0755dc6a434e6648714988bba7a28b6eb0957",
         "e0a1b2b57cf5ca60ef15ff6daf2e884bb3cb76faf858e51352e616f3a47a30ff")),
    "ack-turnaround-0": Case(
        dict(topology="grid", objective="etx", seed=3,
             medium=MediumConfig(ack_turnaround_s=0.0)), None,
        ("a568fd388d13630e450373539e91f4c114a442dcf31bf95ae5c12844e856d60b",
         "87862bf58b367f5f7d3af95a767b15565dbf91e1277c0b10edcc52145d24b4bb")),
    "ack-turnaround-0-backoff-1ms": Case(
        dict(topology="random", objective="of0", rx_success_ratio=1.0,
             seed=4, medium=MediumConfig(ack_turnaround_s=0.0,
                                         backoff_window_s=0.001)), None,
        ("0194c955e327fd04c6aa1cd401e89b1ee3917d38367d98bb8a737981572129d6",
         "21757f8ac2db0c4f1af6e8121a699032b43a4f2b85ca95f557066d9b6b82eee4")),
    "expiry-20s-housekeeping-1s": Case(
        dict(topology="random", objective="etx", rx_success_ratio=0.9,
             node_count=30, seed=6,
             protocol=ProtocolConfig(parent_expiry_floor_s=20.0,
                                     housekeeping_period_s=1.0)), None,
        ("06fd4a73cb5f8d4c31bea52102829a5a88066daaad5845ffd672a874b41c0a0f",
         "c8cdb5b456967481f1e916affbb554070fefee2d47df2b6a40691a25e9126e68"),
        covers=frozenset({"purge"})),
    "per-link-ratios": Case(
        dict(topology="random", objective="etx", node_count=30, seed=7),
        (0.6, 0.8, 1.0),
        ("b6ae9db597d16526ffc6f940632491f540462465aeb04c60b103e71682c79b0f",
         "e8e0f3a4c05da9d9486a7d60af80b784ad364b95552fd844b9becf95bfcf9b94"),
        covers=frozenset({"purge"})),
    "every-record-shape": Case(
        dict(topology="random", objective="etx", node_count=30,
             rx_success_ratio=0.5, warmup_s=5.0, seed=2,
             medium=MediumConfig(bitrate_bps=20000, ack_timeout_s=0.02),
             protocol=ProtocolConfig(parent_expiry_floor_s=20.0,
                                     housekeeping_period_s=1.0,
                                     queue_capacity=1, ttl=3)), None,
        ("8ab1ef261ba8a767eb4b93aef932a2f6fbf18f58a6d49fb7fc5ef36368ac1558",
         "f74a41a9f5bb26e1e970e2449268d78d860a5641cd14329eeb073ff2fa8737d9"),
        covers=EVERY_FACT),
    # with a flat expiry window, so OF0 parents expire and nodes detach
    "every-record-shape-of0": Case(
        dict(topology="random", objective="of0", node_count=30,
             rx_success_ratio=0.5, warmup_s=5.0, seed=2,
             medium=MediumConfig(bitrate_bps=20000, ack_timeout_s=0.02),
             protocol=ProtocolConfig(parent_expiry_floor_s=20.0,
                                     parent_expiry_trickle_factor=0.0,
                                     housekeeping_period_s=1.0,
                                     queue_capacity=1, ttl=3)), None,
        ("d43b3114c060c5cf235ed726114575867425820b14c0a44370dfc5ec1e8704d8",
         "e80d4a9ee5127956f837acbd1248ee8cf83e1f3b6e4fc4545a540cacd81fd064"),
        covers=EVERY_FACT),
    "lossy-random-etx": Case(
        dict(topology="random", objective="etx", node_count=30,
             rx_success_ratio=0.5), None,
        ("2ff93b2705caaedf4daca0dfecb3d5c720cb716806382560e5194d5f58dbaba1",
         "c192221b10044bc3a601a00c70e479d5e378281d0be8924e9625ee2743500381"),
        work=dict(
            processed=5616, scheduled=5874, cancelled=170, selections=390,
            etx_updates=387, tx=dict(ack=535, data=1050, dio=304, dis=25)),
        covers=frozenset({"detach", "purge", "mac-failure"})),
    "lossy-grid-of0": Case(
        dict(topology="grid", objective="of0", node_count=30,
             rx_success_ratio=0.65), None,
        ("0669e99c9f7876a49c1510fd9ef9564371b2a2ff3aeb95ee70f9af28b58f01ec",
         "6be85a5970720a7acf103e0e99375a08493dc33f718f3872f75b2195ca76c471"),
        work=dict(
            processed=5159, scheduled=5348, cancelled=101, selections=32,
            etx_updates=0, tx=dict(ack=677, data=1032, dio=184, dis=29))),
}


def case_inputs(case):
    """The ScenarioConfig and link_rx of CASES[case]'s run."""
    values = dict(node_count=40, rx_success_ratio=0.8, duration_s=300.0,
                  warmup_s=60.0, seed=1)
    values.update(CASES[case].config)
    cfg, ratios = ScenarioConfig(**values), CASES[case].ratios
    return cfg, per_link_ratios(cfg, ratios) if ratios else None


def run_case(case):
    """A fresh traced run of CASES[case]."""
    cfg, link_rx = case_inputs(case)
    return run_scenario(cfg, link_rx=link_rx, trace=True)


def digests(result):
    """The run's (trace, row) sha256 pair: of its JSONL trace as
    write_jsonl writes it, and of result_to_row as sorted JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.jsonl"
        result.trace.write_jsonl(str(path))
        trace = path.read_bytes()
    row = json.dumps(result_to_row(result), sort_keys=True).encode()
    return (hashlib.sha256(trace).hexdigest(),
            hashlib.sha256(row).hexdigest())


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


def fresh_price(objective, node, nid, c):
    """The value selection weighs for candidate nid, priced from its rank,
    cost and link ETX without the node's cache."""
    if objective == "of0":
        return of0_rank(c.rank)
    if c.cost is None or c.cost >= MAX_PATH_COST:
        return MAX_PATH_COST
    return mrhof_path_cost(c.cost, node.link_etx.get(nid, ETX_INITIAL))


def stale_prices(objective, node, priced):
    """Each candidate of node whose cached value is not a fresh pricing, as
    (node, candidate, cached, fresh); adds each (fresh value, link ETX) it
    prices to the set `priced`."""
    stale = []
    for nid, c in node.candidates.items():
        value = fresh_price(objective, node, nid, c)
        if c.through != value:
            stale.append((node.id, nid, c.through, value))
        priced.add((value, node.link_etx.get(nid, ETX_INITIAL)))
    return stale


def full_selection(objective, node):
    """The (rank, parent) that a selection weighing every candidate gives
    node now: the objective module's own rule over fresh prices of the
    candidates ranked below the node, with its current parent kept within
    the hysteresis."""
    values = {}
    for nid, c in node.candidates.items():
        value = fresh_price(objective, node, nid, c)
        if c.rank < node.rank and value < MAX_PATH_COST:
            values[nid] = value
    select = of0_select_parent if objective == "of0" else mrhof_select_parent
    choice = select(values, node.preferred_parent)
    if choice is None:
        return INFINITE_RANK, None
    rank = values[choice] if objective == "of0" else \
        mrhof_rank(node.candidates[choice].rank, values[choice])
    return (rank, choice) if rank < INFINITE_RANK else (INFINITE_RANK, None)


class Shipped(NamedTuple):
    """A case's run as the shipped code makes it, with what it did."""
    result: RunResult
    decoded: list               # its trace, as trace_records reads it
    digests: tuple[str, str]
    work: dict                  # in the shape of Case.work
    wakes: list                 # as record_wakes takes them
    stale: list                 # as stale_prices gives them, at every call
    priced: set                 # as stale_prices adds them, at every call
    unlike: list                # calls whose answer full_selection differs


@functools.cache
def shipped(case):
    """CASES[case]'s shipped run, made once per session.  Callers must not
    mutate its result, and must take it before patching anything.  Every
    selection call is priced afresh at entry and its (rank, parent) answer
    compared with a full selection's, the calls it skips included."""
    calls, stale, priced, unlike = Counter(), [], set(), []
    objective = CASES[case].config["objective"]
    reselect = Node._reselect

    def priced_reselect(self, *kept):
        stale.extend(stale_prices(objective, self, priced))
        expected = full_selection(objective, self)
        consistent = reselect(self, *kept)
        answer = (self.rank, self.preferred_parent)
        if answer != expected:
            unlike.append((self.sim.now, self.id, answer, expected))
        return consistent
    with pytest.MonkeyPatch.context() as mp:
        def count(owner, name, key):
            call = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return call(*args, **kwargs)
            mp.setattr(owner, name, counted)
        count(Simulator, "schedule", "scheduled")
        count(Event, "cancel", "cancelled")
        count(rplsim.rpl, "of0_select_parent", "selections")
        count(rplsim.rpl, "mrhof_select_parent", "selections")
        count(rplsim.rpl, "etx_update", "etx_updates")
        mp.setattr(Node, "_reselect", priced_reselect)
        wakes = record_wakes(mp)
        result = run_case(case)
    records = trace_records(result.trace)
    tx = Counter(r[3] for r in records if r[1] == "tx")
    work = dict(processed=result.nodes[0].sim.events_processed,
                scheduled=calls["scheduled"], cancelled=calls["cancelled"],
                selections=calls["selections"],
                etx_updates=calls["etx_updates"], tx=dict(sorted(tx.items())))
    run = Shipped(result, records, digests(result), work, wakes, stale,
                  priced, unlike)
    gc.freeze()     # kept all session, so later runs' collections skip it
    return run


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_and_row_digests(case):
    run = shipped(case)
    assert check_run(run.result, run.decoded) == []  # a moved case says why
    assert run.digests == CASES[case].digests


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c].work))
def test_work_counts(case):
    assert shipped(case).work == CASES[case].work


def facts(run):
    """The EVERY_FACT names a shipped run holds."""
    records = [record_dict(r) for r in run.decoded]
    held = {r["ev"] for r in records}
    held |= {r["cause"] for r in records if r["ev"] == "drop"}
    if any(r["ev"] == "parent" and r["parent"] is None for r in records):
        held.add("detach")
    if purges(run.wakes):
        held.add("purge")
    return held


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c].covers))
def test_case_covers_its_facts(case):
    assert CASES[case].covers <= EVERY_FACT
    assert sorted(CASES[case].covers - facts(shipped(case))) == []


def test_lines_match_the_json_module(tmp_path, monkeypatch):
    """write_jsonl's hand-built lines are the json module's, on a run that
    holds every record kind and a null parent (test_case_covers_its_facts),
    and read_jsonl gives back the tuples as emitted.  The lines are checked
    against the emitted tuples: lines rebuilt from a decode of themselves
    would repeat a template that swapped two fields."""
    emitted, emit = [], TraceRecorder.emit

    def kept(self, record):
        emitted.append(record)
        emit(self, record)
    monkeypatch.setattr(TraceRecorder, "emit", kept)
    trace = run_case("every-record-shape").trace
    records = [record_dict(r) for r in emitted]
    for record in records:
        for key, value in record.items():
            assert isinstance(value, TRACE_FIELDS[record["ev"]][key])
            assert (value is None or type(value) is int
                    or json.dumps(value) == f'"{value}"'), (key, value)
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(str(path))
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    assert lines == [json.dumps(r, sort_keys=True, separators=(",", ":"))
                     + "\n" for r in records]
    assert read_jsonl(str(path)) == emitted


@pytest.mark.parametrize("case", sorted(CASES))
def test_cached_prices_are_fresh(case):
    """Each candidate's cached value equals a fresh pricing at every call of
    the shipped selection: under MRHOF its cost and the current link ETX,
    under OF0 the rank through it."""
    run = shipped(case)
    assert run.stale == []
    # the values moved, so a stale cache would have been seen
    assert len({value for value, _ in run.priced}) > 3
    if CASES[case].config["objective"] == "etx":
        assert len({etx for _, etx in run.priced}) > 10


@pytest.mark.parametrize("case", sorted(CASES))
def test_lazy_selection_is_exact(case):
    """Every selection call, skipped, kept-parent or full, leaves the
    (rank, parent) that a full selection over the same inputs gives."""
    assert shipped(case).unlike == []


def rx_names_first_frame_of_its_kind(result, records):
    # a frame that an earlier tx aired, by one node with one kind, so only
    # the rx's time, the end of its frame's latest airing, can give it away
    kind, first, planted = {}, {}, []
    for rec in records:
        if rec[1] == "tx":
            kind[rec[4]] = rec[3]
            first.setdefault(rec[3], rec[4])
        elif rec[1] == "rx":
            rec = (*rec[:3], first[kind[rec[3]]])
        planted.append(rec)
    records[:] = planted


def drop_first_deliver(result, records):
    records.remove(next(rec for rec in records if rec[1] == "deliver"))


def detach_a_parent(result, records):
    # the parent of a joined sensor whose parent is not the sink
    child = next(node for node in result.nodes.values()
                 if node.preferred_parent not in (None, 0))
    result.nodes[child.preferred_parent].preferred_parent = None


def loop_a_parent(result, records):
    # the parent of a joined sensor, a sensor that heard it, takes it as its
    # own parent
    nodes = result.nodes
    child = next(node for node in nodes.values()
                 if node.preferred_parent not in (None, 0)
                 and node.id in nodes[node.preferred_parent].candidates)
    nodes[child.preferred_parent].preferred_parent = child.id


def adopt_an_unheard_parent(result, records):
    # a joined sensor that never heard the sink takes it as its parent
    child = next(node for node in result.nodes.values()
                 if node.preferred_parent not in (None, 0)
                 and 0 not in node.candidates)
    child.preferred_parent = 0


def raise_cpu(result, records):
    result.ledgers[1].cpu_us += 1


def send_before_warmup(result, records):
    index = next(i for i, rec in enumerate(records) if rec[1] == "send")
    records[index] = (0, *records[index][1:])


def cost_below_hops(result, records):
    # a joined MRHOF sensor claims a free path to the sink
    next(node for node in result.nodes.values()
         if node.joined and node.role == SENSOR).path_cost = 0


def move_lpm_to_tx(result, records):
    # cpu + lpm is still the elapsed time; only the trace can tell
    ledger = result.ledgers[1]
    ledger.tx_us += 1
    ledger.cpu_us += 1
    ledger.lpm_us -= 1


# A defect planted in a finished run or in its trace records, and the
# oracles that must see it
PLANTED = {
    "rx-names-first-frame-of-its-kind": (rx_names_first_frame_of_its_kind,
                                         {"check_frames"}),
    "first-deliver-dropped": (drop_first_deliver,
                              {"check_packets", "check_replay"}),
    "parent-detached": (detach_a_parent, {"check_tree"}),
    "parent-loop": (loop_a_parent, {"check_tree"}),
    "parent-unheard": (adopt_an_unheard_parent, {"check_tree"}),
    "send-before-warmup": (send_before_warmup, {"check_packets"}),
    "mrhof-cost-below-hops": (cost_below_hops, {"check_tree"}),
    "cpu-raised": (raise_cpu, {"check_energy", "check_replay"}),
    "lpm-moved-to-tx": (move_lpm_to_tx, {"check_replay"}),
}


@pytest.mark.parametrize("defect", sorted(PLANTED))
def test_check_run_sees_a_planted_defect(defect):
    plant, oracles = PLANTED[defect]
    result = run_case("lossy-random-etx")
    records = trace_records(result.trace)
    plant(result, records)
    assert {problem.split(":", 1)[0]
            for problem in check_run(result, records)} == oracles


# Each variant below runs a case another way that must give the bytes of
# the case's shipped run: a reference for an exact speed lever of the shipped
# code, or a relation that keeps every radio link and its ratio.  Only
# test_trace_and_row_digests holds the shipped run to the pin, so a change
# that moves a case's bytes fails there once, and a variant fails only where
# it parts from the shipped code.  Each takes the case, its shipped run and
# a monkeypatch, and returns its own traced run.

def always_evaluate(case, run, monkeypatch):
    """Selection scanning every candidate on every call, the reference for
    each skip rule: _dirty set forces the full scan, so neither a skip nor
    the kept-parent shortcut runs.  On every exit the rank must be
    INFINITE_RANK exactly when there is no parent, as `joined` reads."""
    cfg, link_rx = case_inputs(case)
    evaluations = []
    reselect = Node._reselect

    def evaluated(self, *kept):
        evaluations.append(self.id)
        self._dirty = True
        consistent = reselect(self, *kept)
        assert (self.rank == INFINITE_RANK) == (self.preferred_parent is None)
        return consistent
    monkeypatch.setattr(Node, "_reselect", evaluated)
    result = run_scenario(cfg, link_rx=link_rx, trace=True)
    assert len(evaluations) > run.work["selections"]
    return result


def poll(case, run, monkeypatch):
    """Each sensor woken on every tick of its housekeeping grid, as a
    fixed-period poll does: the one reference for waking only on the ticks
    that can purge.  It must give the same purges, from more wakes."""
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
    wakes = record_wakes(monkeypatch)
    result = run_case(case)
    assert purges(wakes) == purges(run.wakes)
    assert len(wakes) > len(run.wakes)
    return result


def moved(move, factor):
    """The variant that moves every position by `move` and scales the radio
    range by `factor`.  A run reads positions only through
    scenario.radio_links, so a move that keeps each pair's distance, or
    scales positions and range together, keeps every link and the bytes."""
    def variant(case, run, monkeypatch):
        cfg, link_rx = case_inputs(case)
        positions = {nid: move(x, y)
                     for nid, (x, y) in run_positions(cfg).items()}
        cfg = replace(cfg, medium=replace(
            cfg.medium, tx_range_m=factor * cfg.medium.tx_range_m))
        return run_scenario(cfg, positions=positions, link_rx=link_rx,
                            trace=True)
    return variant


def uniform_link_rx(case, run, monkeypatch):
    """Every radio link given the run's own ratio, which the shipped run
    gives each of them; each link is named once, (a, b) with a < b, so the
    reverse way must take the same ratio."""
    cfg, _ = case_inputs(case)
    medium = run.result.nodes[0].medium
    assert {ratio for radio in medium.radios.values()
            for ratio in radio.neighbors.values()} == {cfg.rx_success_ratio}
    link_rx = per_link_ratios(cfg, [cfg.rx_success_ratio])
    return run_scenario(cfg, link_rx=link_rx, trace=True)


VARIANTS = {
    "always-evaluate": always_evaluate,
    "poll-every-tick": poll,
    # each move is exact in floating point except translation, which may
    # round a distance
    "mirror": moved(lambda x, y: (-x, y), 1),
    "rotate-90": moved(lambda x, y: (-y, x), 1),
    "translate": moved(lambda x, y: (x + 1000, y - 1000), 1),
    "double": moved(lambda x, y: (2 * x, 2 * y), 2),
    "uniform-link-rx": uniform_link_rx,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_keeps_the_pinned_bytes(variant, case, monkeypatch):
    if variant == "uniform-link-rx" and CASES[case].ratios:
        pytest.skip("the case sets its own per-link ratios")
    run = shipped(case)         # before the variant patches anything
    result = VARIANTS[variant](case, run, monkeypatch)
    assert digests(result) == run.digests
