"""Wire one scenario into an engine, medium, and node set, and run it.

run_scenario is the single entry point used by the CLI, the sweep driver,
and the test suite; it owns stream derivation, topology construction,
traffic scheduling, and end-of-run bookkeeping.  Its RunResult holds the
run's own Node objects, as the run left them.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from .engine import Simulator, derive_stream, to_us
from .medium import Medium, in_range
from .rpl import Node, SENSOR, SINK
from .scenario import (ConfigError, ScenarioConfig, assign_traffic_classes,
                       generate_topology, next_send_time)
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
    heterogeneous links); JSON-driven runs leave them unset.  A link_rx entry
    must name a radio link of the run with a ratio in [0, 1], else ConfigError.
    """
    # callbacks tie each run's objects into cycles; collecting them here keeps
    # a process that runs many scenarios at one run's memory in any gc phase
    gc.collect()
    sim = Simulator()
    topo_stream = derive_stream(cfg.seed, "topology")
    medium_stream = derive_stream(cfg.seed, "medium")
    if positions is None:
        positions = generate_topology(cfg, topo_stream)
    node_ids = sorted(positions)
    for (a, b), ratio in (link_rx or {}).items():
        if not (a in positions and b in positions and a != b
                and in_range(positions[a], positions[b], cfg.medium)
                and isinstance(ratio, (int, float)) and 0 <= ratio <= 1):
            raise ConfigError(f"link_rx[({a}, {b})]: must join two in-range "
                              f"node ids of the run with a ratio in [0, 1] "
                              f"(got {ratio!r})")

    jitter = {nid: derive_stream(cfg.seed, "protocol-jitter", nid)
              for nid in node_ids}
    traffic = {nid: derive_stream(cfg.seed, "traffic", nid)
               for nid in node_ids}
    ledgers = {nid: EnergyLedger(cfg.currents) for nid in node_ids}
    recorder = TraceRecorder(enabled=True) if trace else NULL_TRACE
    medium = Medium(sim, cfg.medium, cfg.rx_success_ratio, positions,
                    medium_stream, jitter, ledgers, recorder, link_rx)
    sensor_ids = [nid for nid in node_ids if nid != 0]
    metrics = MetricsReport(len(sensor_ids))
    classes = assign_traffic_classes(sensor_ids, cfg.traffic_classes)

    nodes: dict[int, Node] = {}
    for nid in node_ids:
        role = SINK if nid == 0 else SENSOR
        nodes[nid] = Node(nid, role, classes.get(nid), cfg.objective,
                          cfg.protocol, sim, medium, ledgers[nid],
                          jitter[nid], metrics, recorder)
    for nid in node_ids:
        nodes[nid].start()

    warmup_us = to_us(cfg.warmup_s)
    duration_us = to_us(cfg.duration_s)

    def schedule_sends(node: Node) -> None:
        stream = traffic[node.id]

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

    for ledger in ledgers.values():
        ledger.finalize(duration_us)
    return RunResult(cfg, metrics, nodes, ledgers, recorder, duration_us)
