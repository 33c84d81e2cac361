"""Wire one scenario into an engine, medium, and node set, and run it.

run_scenario is the single entry point used by the CLI, the sweep driver,
and the test suite; it derives the topology and traffic streams, builds the
topology, schedules traffic and keeps the end-of-run books.  The medium
derives its own and each radio's jitter stream and gives each radio its
ledger; a Node takes its jitter stream from its radio.  While the run goes,
a radio counts the airtime it sends and receives and a Node the packets it
processes; the ledgers stay empty until the run ends, when each is charged
once per rail (tx, rx, cpu) and finalized.  Its RunResult holds the run's
own Node objects, as the run left them, and their radios' ledgers.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass

from .engine import Simulator, derive_stream, to_us
from .medium import Medium
from .rpl import Node, SINK
from .scenario import (ConfigError, ScenarioConfig, assign_traffic_classes,
                       generate_topology, next_send_time, radio_links)
from .telemetry import (CPU, RX, TX, EnergyLedger, MetricsReport,
                        TraceRecorder, NULL_TRACE)


@dataclass
class RunResult:
    """One finished run: its config, metrics, nodes, ledgers and trace."""
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


def _is_point(point) -> bool:
    return (isinstance(point, (tuple, list)) and len(point) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    and math.isfinite(c) for c in point))


def run_scenario(cfg: ScenarioConfig,
                 positions: dict[int, tuple[float, float]] | None = None,
                 link_rx: dict[tuple[int, int], float] | None = None,
                 trace: bool = False) -> RunResult:
    """Execute one scenario to completion.

    positions and link_rx exist for programmatic studies (fixture graphs,
    heterogeneous links); JSON-driven runs leave them unset.  positions must
    place nodes 0..node_count-1, each at two finite numbers, so that the row
    reports the nodes simulated; radio_links builds the run's links from them
    once, and refuses a bad link_rx entry.
    """
    # callbacks tie each run's objects into cycles; collecting them here keeps
    # a process that runs many scenarios at one run's memory in any gc phase.
    # It walks the caller's whole heap: about 5-9 ms after a 100-node run in
    # a fresh interpreter, 57-82 ms on average in the test session.  A
    # long-running host can gc.collect(); gc.freeze() its settled heap, as
    # tests/conftest.py and the sweep's pool workers (cli) do; a library must
    # not freeze its host's heap.
    gc.collect()
    sim = Simulator()
    if positions is None:
        positions = generate_topology(cfg, derive_stream(cfg.seed, "topology"))
    elif positions.keys() != set(range(cfg.node_count)) or not all(
            map(_is_point, positions.values())):
        raise ConfigError(f"positions: must place nodes 0..{cfg.node_count - 1}"
                          f", each at two finite numbers")
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
        nodes[nid].start()

    warmup_us = to_us(cfg.warmup_s)
    duration_us = to_us(cfg.duration_s)

    def schedule_sends(node: Node) -> None:
        stream = derive_stream(cfg.seed, "traffic", node.id)

        def fire() -> None:
            node.app_generate()
            sim.schedule(next_send_time(node.traffic_class, sim.now, stream),
                         None, None, fire)

        sim.schedule(next_send_time(node.traffic_class, warmup_us, stream),
                     None, None, fire)

    for nid in sensor_ids:
        if nodes[nid].traffic_class is not None:
            schedule_sends(nodes[nid])

    sim.run_until(duration_us)

    cpu_process_us = to_us(cfg.protocol.cpu_process_s)
    ledgers = {}
    for nid, radio in medium.radios.items():
        ledger = ledgers[nid] = radio.ledger
        ledger.charge(TX, radio.tx_us)
        ledger.charge(RX, radio.rx_us)
        ledger.charge(CPU, nodes[nid].processed * cpu_process_us)
        ledger.finalize(duration_us)
    return RunResult(cfg, metrics, nodes, ledgers, recorder, duration_us)
