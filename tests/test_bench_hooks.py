"""The benchmark's per-layer hooks still bind the simulator they measure.

perfbench/hooks.py wraps rplsim from outside: every callback passed to
Simulator.schedule, Event.cancel, Node.preferred_parent and a set of public
functions.  A kernel change that lets events bypass schedule, renames a hook
target or hands the kernel callbacks from outside rplsim would silently move
time between layers; these checks fail instead.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import rplsim.simulate
from oracles import trace_records
from rplsim.engine import Event, Simulator
from rplsim.medium import Frame, FrameKind, Transmission, _Radio
from rplsim.rpl import CandidateInfo, DataPacket, DioMessage, Node
from rplsim.scenario import ScenarioConfig
from rplsim.simulate import run_scenario

HOOKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


@pytest.fixture(scope="module")
def hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks",
                                                  HOOKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_bind_and_count_every_event(hooks, monkeypatch):
    sims = []

    class RecordingSimulator(Simulator):
        def __init__(self):
            super().__init__()
            sims.append(self)

    schedule = Simulator.__dict__["schedule"]
    tracer = hooks.Tracer()
    restore = hooks.install(tracer)
    try:
        monkeypatch.setattr(rplsim.simulate, "Simulator", RecordingSimulator)
        cfg = ScenarioConfig(node_count=20, topology="random",
                             objective="etx", rx_success_ratio=0.8,
                             duration_s=200.0, warmup_s=60.0, seed=3)
        run_scenario(cfg)
    finally:
        restore()
    assert tracer.absent == {}
    (sim,) = sims
    assert sim.events_processed > 0
    assert tracer.event_calls() == sim.events_processed
    assert tracer.counts["engine.cancelled"] > 0
    others = [name for (layer, name) in tracer.agg
              if layer == "other" and name.startswith("event:")]
    assert others == []
    assert Simulator.__dict__["schedule"] is schedule
    assert "preferred_parent" not in Node.__dict__


@pytest.mark.parametrize("objective", ["of0", "etx"])
def test_hooks_count_a_traced_run(hooks, objective):
    # the trace counts the work without the hooks: each hooked count
    # matches it only while the medium and rpl still make every counted
    # call (deliver once per receiver, emit once per record), so a hot-path
    # cut cannot skip one unseen; each node's ledger takes three charges,
    # one per rail, after run_until
    tracer = hooks.Tracer()
    restore = hooks.install(tracer)
    try:
        cfg = ScenarioConfig(node_count=20, topology="random",
                             objective=objective, rx_success_ratio=0.8,
                             duration_s=200.0, warmup_s=60.0, seed=3)
        result = run_scenario(cfg, trace=True)
    finally:
        restore()
    assert tracer.absent == {}
    values, absent = hooks.layer_metrics(tracer, 0.0)
    assert absent == {}
    records = trace_records(result.trace)
    by_event = Counter(r[1] for r in records)
    assert by_event["rx"] > 0
    assert values["medium.rx.delivered"] == by_event["rx"]
    assert values["objective.select_calls"] > 0
    assert values["telemetry.trace_records"] == len(records)
    assert values["telemetry.ledger_charges"] == 3 * cfg.node_count
    sent = Counter(r[3] for r in records if r[1] == "tx")
    assert set(sent) <= {kind.value for kind in FrameKind}
    for kind in FrameKind:
        assert values[f"medium.frames_tx.{kind.value}"] == sent[kind.value]


@pytest.mark.parametrize("cls", [Frame, Transmission, _Radio, DataPacket,
                                 CandidateInfo, DioMessage, Event],
                         ids=lambda cls: cls.__name__)
def test_per_frame_classes_keep_slots(cls):
    # one of these is made per frame, airing, radio, packet, DIO or event, so
    # each stays free of a per-instance __dict__
    assert "__slots__" in vars(cls)
    assert all("__dict__" not in vars(base) for base in cls.__mro__)


def test_nodes_keep_the_shared_key_table():
    # CPython 3.11 shares one key table among the __dict__s of a class's
    # instances only while they hold fewer than 30 attributes; a 30th grew
    # each Node's dict from 296 B to 1,584 B and slowed every run that
    # builds nodes, which undid the gain of booking energy once per run
    cfg = ScenarioConfig(node_count=20, topology="random", objective="etx",
                         rx_success_ratio=0.8, duration_s=120.0,
                         warmup_s=30.0, seed=3)
    sizes = {len(vars(node)) for node in run_scenario(cfg).nodes.values()}
    assert max(sizes) < 30, (
        f"a Node holds {max(sizes)} attributes; at 30 or more its __dict__ "
        f"leaves the shared key table and grows from 296 B to 1,584 B")
