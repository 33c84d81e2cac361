"""Energy accounting, run metrics and the event trace.

Each node carries an EnergyLedger of integer-microsecond state durations.
The CPU dimension (active vs low-power) partitions elapsed time exactly;
the radio dimension (tx, rx) is a subset of it.  Charging rules:

  * tx is the sender's airtime of every frame, rx a node's airtime of
    every frame actually delivered to it; delivered frames never overlap
    each other or the node's own transmissions, so radio time is a
    disjoint union of intervals.
  * the ledger books tx and rx time as CPU-active time as well, in the
    same charge; a cpu charge adds the fixed processing cost per
    application packet handled (generated, forwarded, or delivered at the
    sink).
  * during the run the radio counts its tx and rx airtime and the node the
    packets it handles; the ledger stays empty until the run ends, when
    run_scenario charges it once per rail (tx, rx, cpu) and finalizes it.
  * low-power time is never charged: finalize sets it to the rest of the
    elapsed time.

Power follows the two-rail model: every state duration times its current
draw, summed across both rails, times supply voltage.

The event trace: a TraceRecorder streams it as JSONL to an anonymous
temporary file, _CHUNK records at a time, so a run never holds more than
one chunk of record tuples.  The file is unlinked as it is made, so nothing
is left on disk, and closed when the recorder goes.  The recorder only
writes; read_jsonl decodes the file write_jsonl copies out.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from operator import itemgetter

from .engine import US_PER_S

TRAFFIC_CLASSES = ("high-critical", "critical", "low-critical", "temperature")
DROP_CAUSES = ("no-route", "mac-failure", "queue-overflow", "ttl")

TX, RX, CPU = "tx", "rx", "cpu"


@dataclass(frozen=True)
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
    "tx": {**_HEAD, "kind": str, "frame": int},
    "rx": {**_HEAD, "frame": int},      # its tx of the same frame has the rest
    "send": {**_HEAD, "pkt": str, "cls": str},
    "fwd": {**_HEAD, "pkt": str},
    "deliver": {**_HEAD, "pkt": str},
    "drop": {**_HEAD, "pkt": str, "cause": str},
    "parent": {**_HEAD, "parent": int | None, "rank": int},
}
_TUPLE = {ev: itemgetter(*f) for ev, f in TRACE_FIELDS.items()}
_CHUNK = 4096                   # records a recorder holds as tuples at most


def _encode(records: list[tuple]) -> str:
    """The JSONL text of records: each line is json.dumps of the record as a
    dict, keys sorted, compact separators.  A record of an unknown kind or
    width raises KeyError."""
    lines = []
    add = lines.append
    for r in records:
        match r:
            case (t, "rx", node, frame):
                add(f'{{"ev":"rx","frame":{frame},"node":{node},"t":{t}}}\n')
            case (t, "tx", node, kind, frame):
                add(f'{{"ev":"tx","frame":{frame},"kind":"{kind}",'
                    f'"node":{node},"t":{t}}}\n')
            case (t, "send", node, pkt, cls):
                add(f'{{"cls":"{cls}","ev":"send","node":{node},'
                    f'"pkt":"{pkt}","t":{t}}}\n')
            case (t, ("fwd" | "deliver") as ev, node, pkt):
                add(f'{{"ev":"{ev}","node":{node},"pkt":"{pkt}","t":{t}}}\n')
            case (t, "parent", node, parent, rank):
                parent = "null" if parent is None else parent
                add(f'{{"ev":"parent","node":{node},"parent":{parent},'
                    f'"rank":{rank},"t":{t}}}\n')
            case (t, "drop", node, pkt, cause):
                add(f'{{"cause":"{cause}","ev":"drop","node":{node},'
                    f'"pkt":"{pkt}","t":{t}}}\n')
            case _:
                raise KeyError(f"malformed trace record: {r!r}")
    return "".join(lines)


def read_jsonl(path: str) -> list[tuple]:
    """The record tuples of a trace that write_jsonl wrote to path, in emit
    order and laid out by TRACE_FIELDS."""
    records = []
    with open(path, "rb") as fh:
        while block := fh.read(1 << 18):
            block += fh.readline()      # to its last line's end
            array = b"[" + block[:-1].replace(b"\n", b",") + b"]"
            records += [_TUPLE[d["ev"]](d) for d in json.loads(array)]
    return records


class TraceRecorder:
    """Streams the trace as JSONL text, encoded every _CHUNK records, into an
    anonymous temporary file that write_jsonl copies out.  Encoding fails on
    an unknown kind or width; disabled, it keeps none."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._file = None               # opened at the first spill
        self._tail: list[tuple] = []

    def emit(self, record: tuple) -> None:
        if self.enabled:
            self._tail.append(record)
            if len(self._tail) == _CHUNK:
                self._spill()

    def _spill(self) -> None:
        """Append the tail's text to the file and let the tuples go."""
        if self._file is None:
            import tempfile
            # unlinked at creation, so nothing outlives the process; append
            # mode writes at the end wherever a read left the offset
            self._file = tempfile.TemporaryFile("a+b")
            weakref.finalize(self, self._file.close)
        self._file.write(_encode(self._tail).encode())
        self._file.flush()      # a forked copy must hold no bytes to flush
        self._tail.clear()

    def write_jsonl(self, path: str) -> None:
        self._spill()
        self._file.seek(0)
        with open(path, "wb") as fh:
            while block := self._file.read(1 << 18):
                fh.write(block)


NULL_TRACE = TraceRecorder(enabled=False)
