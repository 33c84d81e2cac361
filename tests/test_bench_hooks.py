"""The benchmark's per-layer hooks still bind the simulator they measure.

perfbench/hooks.py wraps rplsim from outside: every callback passed to
Simulator.schedule, Event.cancel, Node.preferred_parent and a set of public
functions.  A kernel change that lets events bypass schedule, renames a hook
target or hands the kernel callbacks from outside rplsim would silently move
time between layers; these checks fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

import rplsim.simulate
from rplsim.engine import Simulator
from rplsim.rpl import Node
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


def test_hooks_count_a_traced_of0_run(hooks):
    # the trace counts deliveries without the hooks: the hooked count
    # matches it only while deliver runs once per receiver
    tracer = hooks.Tracer()
    restore = hooks.install(tracer)
    try:
        cfg = ScenarioConfig(node_count=20, topology="random",
                             objective="of0", rx_success_ratio=0.8,
                             duration_s=200.0, warmup_s=60.0, seed=3)
        result = run_scenario(cfg, trace=True)
    finally:
        restore()
    assert tracer.absent == {}
    values, absent = hooks.layer_metrics(tracer, 0.0)
    assert absent == {}
    rx = sum(r[1] == "rx" for r in result.trace.records)
    assert rx > 0
    assert values["medium.rx.delivered"] == rx
    assert values["objective.select_calls"] > 0
