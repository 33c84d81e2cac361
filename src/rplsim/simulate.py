"""Wire one scenario into an engine, medium, and node set, and run it.

run_scenario is the single entry point used by the CLI, the sweep driver,
and the test suite; it derives the topology and traffic streams, builds the
topology, schedules traffic and keeps the end-of-run books.  The medium
derives its own and each radio's jitter stream and gives each radio its
ledger; a Node takes both from its radio.  Its RunResult holds the run's
own Node objects, as the run left them, and their ledgers.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from .engine import Simulator, derive_stream, to_us
from .medium import Medium
from .rpl import Node, SINK
from .scenario import (ScenarioConfig, assign_traffic_classes,
                       generate_topology, next_send_time, radio_links)
from .telemetry import EnergyLedger, MetricsReport, TraceRecorder, NULL_TRACE


@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: MetricsReport
    nodes: dict[int, Node]              # as the run left them
    ledgers: dict[int, EnergyLedger]
    trace: TraceRecorder
    elapsed_us: int

    def depth(self, node_id: int) -> int | None:
        """Hops from node_id to the sink along preferred parents, or None."""
        hops = 0
        current = node_id
        while hops <= len(self.nodes):
            node = self.nodes[current]
            if node.role == SINK:
                return hops
            if node.preferred_parent is None:
                return None
            current = node.preferred_parent
            hops += 1
        return None

    def avg_power_mw(self) -> float:
        return sum(led.average_power_mw(self.elapsed_us)
                   for led in self.ledgers.values()) / len(self.ledgers)

    def total_energy_mj(self) -> float:
        return sum(led.total_energy_mj() for led in self.ledgers.values())


def run_scenario(cfg: ScenarioConfig,
                 positions: dict[int, tuple[float, float]] | None = None,
                 link_rx: dict[tuple[int, int], float] | None = None,
                 trace: bool = False) -> RunResult:
    """Execute one scenario to completion.

    positions and link_rx exist for programmatic studies (fixture graphs,
    heterogeneous links); JSON-driven runs leave them unset.  radio_links
    builds the run's links from them once, and refuses a bad link_rx entry.
    """
    # callbacks tie each run's objects into cycles; collecting them here keeps
    # a process that runs many scenarios at one run's memory in any gc phase.
    # It walks the caller's whole heap: about 5-9 ms after a 100-node run in
    # a fresh interpreter, 57-82 ms on average in the test session.  A
    # long-running host can gc.collect(); gc.freeze() its settled heap, as
    # tests/conftest.py does; a library must not freeze its host's heap.
    gc.collect()
    sim = Simulator()
    if positions is None:
        positions = generate_topology(cfg, derive_stream(cfg.seed, "topology"))
    links = radio_links(positions, cfg.medium.tx_range_m,
                        cfg.rx_success_ratio, link_rx)
    node_ids = list(links)                 # ascending

    recorder = TraceRecorder(enabled=True) if trace else NULL_TRACE
    medium = Medium(sim, cfg.medium, links, cfg.seed, cfg.currents, recorder)
    sensor_ids = [nid for nid in node_ids if nid != 0]
    metrics = MetricsReport(len(sensor_ids))
    classes = assign_traffic_classes(sensor_ids, cfg.traffic_classes)

    nodes: dict[int, Node] = {}
    for nid in node_ids:
        nodes[nid] = Node(nid, classes.get(nid), cfg.objective, cfg.protocol,
                          medium, metrics)
    for nid in node_ids:
        nodes[nid].start()

    warmup_us = to_us(cfg.warmup_s)
    duration_us = to_us(cfg.duration_s)

    def schedule_sends(node: Node) -> None:
        stream = derive_stream(cfg.seed, "traffic", node.id)

        def fire() -> None:
            node.app_generate()
            sim.schedule_in(next_send_time(node.traffic_class, sim.now, stream)
                            - sim.now, fire)

        first = next_send_time(node.traffic_class, warmup_us, stream)
        sim.schedule_in(first - sim.now, fire)

    for nid in sensor_ids:
        if nodes[nid].traffic_class is not None:
            schedule_sends(nodes[nid])

    sim.run_until(duration_us)

    ledgers = {nid: node.ledger for nid, node in nodes.items()}
    for ledger in ledgers.values():
        ledger.finalize(duration_us)
    return RunResult(cfg, metrics, nodes, ledgers, recorder, duration_us)
