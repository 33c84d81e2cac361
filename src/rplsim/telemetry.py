"""Energy accounting and run metrics.

Each node carries an EnergyLedger of integer-microsecond state durations.
The CPU dimension (active vs low-power) partitions elapsed time exactly;
the radio dimension (tx, rx) is a subset of it.  Charging rules:

  * tx is charged to the sender for every frame's airtime, rx to a node
    for every frame actually delivered to it; delivered frames never
    overlap each other or the node's own transmissions, so radio time is
    a disjoint union of intervals.
  * the ledger books every tx or rx window as CPU-active time as well, in
    the same charge; a cpu charge adds the fixed processing cost per
    application packet handled (generated, forwarded, or delivered at the
    sink).
  * low-power time is never charged: finalize sets it to the rest of the
    elapsed time.

Power follows the two-rail model: every state duration times its current
draw, summed across both rails, times supply voltage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import US_PER_S

TRAFFIC_CLASSES = ("high-critical", "critical", "low-critical", "temperature")
DROP_CAUSES = ("no-route", "mac-failure", "queue-overflow", "ttl")

TX, RX, CPU = "tx", "rx", "cpu"


@dataclass
class EnergyCurrents:
    """Per-state current draws (mA) and supply voltage (V)."""
    tx_ma: float = 17.4
    rx_ma: float = 19.7
    cpu_ma: float = 1.8
    lpm_ma: float = 0.0545
    voltage_v: float = 3.0


class EnergyLedger:
    """Integer-microsecond duty-cycle ledger for one node."""

    def __init__(self, currents: EnergyCurrents | None = None):
        self.currents = currents or EnergyCurrents()
        self.tx_us = 0
        self.rx_us = 0
        self.cpu_us = 0
        self.lpm_us = 0

    def charge(self, state: str, duration_us: int) -> None:
        if duration_us < 0:
            raise ValueError(f"negative energy charge: {state} {duration_us}")
        if state == RX:                 # the most frequent charge first
            self.rx_us += duration_us
        elif state == TX:
            self.tx_us += duration_us
        elif state != CPU:
            raise ValueError(f"unknown energy state: {state!r}")
        self.cpu_us += duration_us

    def finalize(self, elapsed_us: int) -> None:
        """Fill the low-power bucket so cpu + lpm partitions elapsed time."""
        if self.cpu_us > elapsed_us:
            raise ValueError(
                f"cpu time {self.cpu_us} exceeds elapsed {elapsed_us}"
            )
        self.lpm_us = elapsed_us - self.cpu_us

    def charge_mc(self) -> float:
        """Accumulated charge in millicoulombs (mA * s) across both rails."""
        c = self.currents
        return (self.tx_us / US_PER_S * c.tx_ma + self.rx_us / US_PER_S * c.rx_ma
                + self.cpu_us / US_PER_S * c.cpu_ma
                + self.lpm_us / US_PER_S * c.lpm_ma)

    def average_power_mw(self, elapsed_us: int) -> float:
        if elapsed_us <= 0:
            raise ValueError("average power undefined for elapsed <= 0")
        return self.charge_mc() * self.currents.voltage_v / (elapsed_us / US_PER_S)

    def total_energy_mj(self) -> float:
        return self.charge_mc() * self.currents.voltage_v


class MetricsReport:
    """Packet delivery, drop, and control-overhead accounting for one run.

    A packet is recorded exactly once, with its final outcome; the
    conservation identity delivered + drops == sent then holds per class
    and in total by construction.
    """

    def __init__(self, sensors: int = 0) -> None:
        self.sent = {cls: 0 for cls in TRAFFIC_CLASSES}
        self.delivered = {cls: 0 for cls in TRAFFIC_CLASSES}
        self.drops = {cls: {cause: 0 for cause in DROP_CAUSES}
                      for cls in TRAFFIC_CLASSES}
        self.dio_count = 0
        self.dis_count = 0
        self.convergence_us: int | None = None  # all sensors first joined
        self._unjoined = sensors
        self.hop_total = 0
        self.latency_total_us = 0

    def join_changed(self, joined: bool, now: int) -> None:
        """Count one sensor joining or leaving the DODAG at now."""
        self._unjoined += -1 if joined else 1
        if self._unjoined == 0 and self.convergence_us is None:
            self.convergence_us = now

    def record_packet(self, traffic_class: str, outcome: str,
                      hops: int = 0, latency_us: int = 0) -> None:
        """Account one packet's final fate; outcome is 'delivered' or a drop cause."""
        self.sent[traffic_class] += 1
        if outcome == "delivered":
            self.delivered[traffic_class] += 1
            self.hop_total += hops
            self.latency_total_us += latency_us
        elif outcome in DROP_CAUSES:
            self.drops[traffic_class][outcome] += 1
        else:
            raise ValueError(f"unknown packet outcome: {outcome!r}")

    def pdr(self, traffic_class: str | None = None) -> float | None:
        """Delivery ratio for one class or overall; None when nothing was sent."""
        if traffic_class is None:
            sent, delivered = self.total_sent(), self.total_delivered()
        else:
            sent = self.sent[traffic_class]
            delivered = self.delivered[traffic_class]
        if sent == 0:
            return None
        return delivered / sent

    def drops_by_cause(self, cause: str) -> int:
        return sum(self.drops[cls][cause] for cls in TRAFFIC_CLASSES)

    def total_sent(self) -> int:
        return sum(self.sent.values())

    def total_delivered(self) -> int:
        return sum(self.delivered.values())


# Record tuples hold these fields in order; fixed-vocabulary strings need no escaping.
_HEAD = {"t": int, "ev": str, "node": int}
TRACE_FIELDS = {
    "tx": {**_HEAD, "kind": str, "bytes": int, "frame": int},
    "rx": {**_HEAD, "from": int, "bytes": int, "frame": int},
    "send": {**_HEAD, "pkt": str, "cls": str},
    "fwd": {**_HEAD, "pkt": str},
    "deliver": {**_HEAD, "pkt": str, "hops": int, "lat": int},
    "drop": {**_HEAD, "pkt": str, "cause": str},
    "parent": {**_HEAD, "parent": int | None, "rank": int},
}
_FIELDS = {(ev, len(f)): f for ev, f in TRACE_FIELDS.items()}
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class TraceRecorder:
    """Collects trace records in `records`, tuples laid out by TRACE_FIELDS.
    Writing fails on an unknown kind or width; disabled, it keeps none."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[tuple] = []

    def emit(self, record: tuple) -> None:
        if self.enabled:
            self.records.append(record)

    def write_jsonl(self, path: str) -> None:
        t0 = object()                 # in no record: the first rx misses
        with open(path, "w", encoding="utf-8") as fh:
            write = fh.write          # line by line, no file-sized string
            for r in self.records:
                match r:     # each line is what _ENCODE makes of its dict
                    case (t, "rx", node, src, size, frame):
                        if (t is not t0 or frame is not frame0
                                or src is not src0 or size is not size0):
                            t0, src0, size0, frame0 = t, src, size, frame
                            head = (f'{{"bytes":{size},"ev":"rx","frame":'
                                    f'{frame},"from":{src},"node":')
                            tail = f',"t":{t}}}\n'
                        write(f"{head}{node}{tail}")  # an airing's share
                    case (t, "tx", node, kind, size, frame):
                        write(f'{{"bytes":{size},"ev":"tx","frame":{frame},'
                              f'"kind":"{kind}","node":{node},"t":{t}}}\n')
                    case (t, "send", node, pkt, cls):
                        write(f'{{"cls":"{cls}","ev":"send","node":{node},'
                              f'"pkt":"{pkt}","t":{t}}}\n')
                    case (t, "deliver", node, pkt, hops, lat):
                        write(f'{{"ev":"deliver","hops":{hops},"lat":{lat},'
                              f'"node":{node},"pkt":"{pkt}","t":{t}}}\n')
                    case (t, "fwd", node, pkt):
                        write(f'{{"ev":"fwd","node":{node},"pkt":"{pkt}","t":{t}}}\n')
                    case _:                   # the rare kinds, or KeyError
                        write(_ENCODE(dict(zip(_FIELDS[r[1], len(r)], r))) + "\n")


NULL_TRACE = TraceRecorder(enabled=False)
