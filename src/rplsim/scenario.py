"""Experiment descriptions: scenario schema, topologies, and traffic profiles.

A scenario is a JSON document naming the topology family, objective
function, reception ratio, node count, duration, and seed, with optional
medium/protocol/energy overrides; scenario.schema.json holds its per-field
rules.  Topology generation is deterministic given (config, seed); the grid
family uses no randomness at all.

Four healthcare traffic classes exist.  Sensors are sorted by id and
partitioned into contiguous blocks as equal as possible, assigned in the
fixed class order below, so any node count gets a balanced mix.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import pathlib
import random
from dataclasses import asdict, dataclass, field

from .engine import to_us
from .medium import MediumConfig
from .rpl import DIS_JITTER, ProtocolConfig
from .telemetry import EnergyCurrents, TRAFFIC_CLASSES

MAX_TOPOLOGY_ATTEMPTS = 1000

# mean send interval (s) per traffic class; the periodic ones send exactly
# on it, the others jitter uniformly around it
SEND_INTERVAL_S = {"high-critical": 10.0, "critical": 20.0,
                   "low-critical": 300.0, "temperature": 3600.0}
PERIODIC_CLASSES = frozenset({"low-critical"})


class ConfigError(Exception):
    """A scenario or sweep document failed validation; message names the field."""


@dataclass
class ScenarioConfig:
    """One run's description.  Building one, from JSON or in Python, checks
    the schema, then the cross-field rules the schema cannot express, and
    raises a ConfigError naming the dotted field."""
    node_count: int
    topology: str
    objective: str
    rx_success_ratio: float
    seed: int = 1
    area_side_m: float = 300.0
    grid_spacing_m: float = 60.0
    duration_s: float = 900.0
    warmup_s: float = 60.0
    traffic_classes: tuple[str, ...] = TRAFFIC_CLASSES
    medium: MediumConfig = field(default_factory=MediumConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    currents: EnergyCurrents = field(default_factory=EnergyCurrents)

    def __post_init__(self):
        validate(asdict(self), load_schema("scenario"))
        self.traffic_classes = tuple(self.traffic_classes)
        med, proto = self.medium, self.protocol
        # in the run's microseconds: an ACK ending as it times out is lost
        if to_us(med.ack_timeout_s) <= (to_us(med.ack_turnaround_s)
                                        + med.airtime_us(med.ack_frame_bytes)):
            raise ConfigError("medium.ack_timeout_s: must exceed turnaround "
                              f"+ ACK airtime (got {med.ack_timeout_s!r})")
        # a 1 us window draws every backoff as 0: a busy channel hangs the run
        if to_us(med.backoff_window_s) < 2:
            raise ConfigError("medium.backoff_window_s: must be at least 2 us "
                              f"once rounded (got {med.backoff_window_s!r})")
        if to_us(proto.housekeeping_period_s) < 1:
            raise ConfigError(
                "protocol.housekeeping_period_s: must be at least 1 us")
        if to_us(self.duration_s) <= to_us(self.warmup_s):
            raise ConfigError(f"duration_s: must exceed warmup_s="
                              f"{self.warmup_s} by at least 1 us "
                              f"(got {self.duration_s!r})")
        if self.topology == "grid" and self.grid_spacing_m > med.tx_range_m:
            raise ConfigError(f"grid_spacing_m: must not exceed medium."
                              f"tx_range_m={med.tx_range_m}, or the lattice "
                              f"is disconnected (got {self.grid_spacing_m!r})")
        # a control timer that fires faster than the radio can send its frame
        # queues frames without bound, and the run grows until it is killed;
        # send_us is at least the 2 us backoff, so this also refuses a timer
        # that rounds to 0 us
        send_us = (to_us(med.backoff_window_s)
                   + med.airtime_us(med.control_frame_bytes))
        for name, what, period_us in (
                ("trickle_i_min_s", "the longest trickle interval",
                 to_us(proto.trickle_i_min_s) << proto.trickle_doublings),
                ("dis_period_s", f"the shortest DIS wait ({DIS_JITTER[0]}x)",
                 to_us(proto.dis_period_s * DIS_JITTER[0]))):
            if period_us < send_us:
                raise ConfigError(
                    f"protocol.{name}: {what}, {period_us} us, must be at "
                    f"least medium.backoff_window_s plus a control frame's "
                    f"airtime, {send_us} us (got {getattr(proto, name)!r})")

    @property
    def scenario_id(self) -> str:
        """The run's CSV key, derived from the inputs that name its cell."""
        return (f"{self.topology}{self.node_count}_{self.objective}"
                f"_rx{round(self.rx_success_ratio * 100)}")


# the keywords validate() interprets; a schema may use no others
SCHEMA_KEYWORDS = frozenset({
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "minItems",
    "items", "required", "properties", "additionalProperties"})

_JSON_TYPES = ((bool, "boolean"), (int, "integer"), (float, "number"),
               (str, "string"), ((list, tuple), "array"), (dict, "object"))
_BOUNDS = (("minimum", operator.ge, ">="), ("maximum", operator.le, "<="),
           ("exclusiveMinimum", operator.gt, ">"))


@functools.cache
def load_schema(name: str) -> dict:
    """The bundled `<name>.schema.json`, parsed once per process."""
    path = pathlib.Path(__file__).with_name("schemas") / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def validate(value, spec: dict, path: str = "") -> None:
    """Check a JSON value against a schema of SCHEMA_KEYWORDS, raising a
    ConfigError that names the dotted field.  Neither a boolean, NaN nor an
    infinity is a number, a float is never an integer, a tuple is an array,
    and unknown keys fail first, then properties in the schema's order."""
    def fail(problem):
        raise ConfigError(f"{path or spec.get('title', 'document')}: "
                          f"{problem} (got {value!r})")
    kind = next((name for cls, name in _JSON_TYPES if isinstance(value, cls)),
                "null")
    if kind == "number" and not math.isfinite(value):
        kind = "non-finite"
    want = spec.get("type", kind)
    if want != kind and (want, kind) != ("number", "integer"):
        fail(f"must be of type {want}")
    if "enum" in spec and value not in spec["enum"]:
        fail(f"must be one of {spec['enum']}")
    for key, holds, word in _BOUNDS:
        if key in spec and kind in ("integer", "number") \
                and not holds(value, spec[key]):
            fail(f"must be {word} {spec[key]}")
    if kind == "array":
        if len(value) < spec.get("minItems", 0):
            fail(f"must have at least {spec['minItems']} item(s)")
        for i, item in enumerate(value if "items" in spec else ()):
            validate(item, spec["items"], f"{path}[{i}]")
    if kind == "object":
        prefix = f"{path}." if path else ""
        for key in spec.get("required", ()):
            if key not in value:
                raise ConfigError(f"{prefix}{key}: required field is missing")
        properties = spec.get("properties", {})
        for key in value:
            if key not in properties \
                    and spec.get("additionalProperties") is False:
                raise ConfigError(f"{prefix}{key}: unknown field")
        for key, item in properties.items():
            if key in value:
                validate(value[key], item, prefix + key)


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a raw JSON document.  The document is
    validated here as well only because an unknown key or a non-object
    section must be refused before it reaches a constructor."""
    validate(raw, load_schema("scenario"))
    return ScenarioConfig(**dict(raw, **{
        name: cls(**raw.get(name, {})) for name, cls in (
            ("medium", MediumConfig), ("protocol", ProtocolConfig),
            ("currents", EnergyCurrents))}))


def load_json(path: str, what: str):
    """Parse a JSON file; an unreadable or malformed one is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what} file cannot be read: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{what} file is not valid JSON: {exc}") from None


def load_scenario(path: str) -> ScenarioConfig:
    return scenario_from_dict(load_json(path, "config"))


# ------------------------------------------------------------------ topology

def radio_links(positions: dict[int, tuple[float, float]], tx_range: float,
                rx_ratio: float = 1.0, link_rx: dict | None = None
                ) -> dict[int, dict[int, float]]:
    """Each node's radio links, {id: {peer: reception ratio}}, ids ascending.

    Nodes within tx_range hear each other (closed boundary), nobody else
    does.  A link's ratio is rx_ratio unless a link_rx entry names the link,
    either way round (a later entry wins).  An entry naming no link, or
    whose ratio is not a number in [0, 1], is a ConfigError.
    """
    ids = sorted(positions)
    links: dict[int, dict[int, float]] = {a: {} for a in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if math.dist(positions[a], positions[b]) <= tx_range:
                links[a][b] = links[b][a] = rx_ratio
    for (a, b), ratio in (link_rx or {}).items():
        if not (b in links.get(a, ()) and not isinstance(ratio, bool)
                and isinstance(ratio, (int, float)) and 0 <= ratio <= 1):
            raise ConfigError(f"link_rx[({a}, {b})]: must join two in-range "
                              f"node ids of the run with a ratio in [0, 1] "
                              f"(got {ratio!r})")
        links[a][b] = links[b][a] = ratio
    return links


def unit_disk_connected(positions: dict[int, tuple[float, float]],
                        tx_range: float) -> bool:
    """True when the closed-boundary unit-disk graph is one component."""
    links = radio_links(positions, tx_range)
    seen = {min(links)}
    frontier = list(seen)
    while frontier:
        fresh = links[frontier.pop()].keys() - seen
        seen |= fresh
        frontier += fresh
    return len(seen) == len(links)


def generate_random_topology(cfg: ScenarioConfig,
                             stream: random.Random) -> dict[int, tuple[float, float]]:
    """Sink at the square's center, sensors i.i.d. uniform, resampled until
    the radio graph is connected."""
    side = cfg.area_side_m
    center = (side / 2.0, side / 2.0)
    for _ in range(MAX_TOPOLOGY_ATTEMPTS):
        positions = {0: center}
        for nid in range(1, cfg.node_count):
            positions[nid] = (stream.uniform(0.0, side), stream.uniform(0.0, side))
        if unit_disk_connected(positions, cfg.medium.tx_range_m):
            return positions
    raise ConfigError(
        f"topology: no connected random layout in {MAX_TOPOLOGY_ATTEMPTS} "
        f"attempts (node_count={cfg.node_count}, area_side_m={side}, "
        f"tx_range_m={cfg.medium.tx_range_m}); density is too low")


def generate_grid_topology(cfg: ScenarioConfig) -> dict[int, tuple[float, float]]:
    """Row-major ceil(sqrt(n)) x ceil(n/cols) lattice; the sink takes the
    cell nearest the centroid of the occupied cells."""
    n = cfg.node_count
    spacing = cfg.grid_spacing_m
    cols = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    cells = [((i % cols) * spacing, (i // cols) * spacing) for i in range(n)]
    cx = sum(x for x, _ in cells) / n
    cy = sum(y for _, y in cells) / n
    sink_cell = min(range(n),
                    key=lambda i: ((cells[i][0] - cx) ** 2
                                   + (cells[i][1] - cy) ** 2, i))
    positions = {0: cells[sink_cell]}
    nid = 1
    for i, cell in enumerate(cells):
        if i == sink_cell:
            continue
        positions[nid] = cell
        nid += 1
    return positions


def generate_topology(cfg: ScenarioConfig,
                      stream: random.Random) -> dict[int, tuple[float, float]]:
    if cfg.topology == "grid":
        return generate_grid_topology(cfg)
    return generate_random_topology(cfg, stream)


# ------------------------------------------------------------------- traffic

def assign_traffic_classes(sensor_ids: list[int],
                           enabled: tuple[str, ...] = TRAFFIC_CLASSES
                           ) -> dict[int, str]:
    """Partition sensors (sorted by id) into near-equal contiguous blocks,
    one block per enabled class in the canonical class order."""
    if not enabled:
        return {}
    names = [cls for cls in TRAFFIC_CLASSES if cls in enabled]
    ordered = sorted(sensor_ids)
    n, k = len(ordered), len(names)
    base, extra = divmod(n, k)
    assignment = {}
    index = 0
    for block, name in enumerate(names):
        size = base + (1 if block < extra else 0)
        for nid in ordered[index:index + size]:
            assignment[nid] = name
        index += size
    return assignment


def next_send_time(traffic_class: str, now_us: int,
                   stream: random.Random) -> int:
    """Next application send: exact period for periodic classes, uniform jitter
    over [T/2, 3T/2] for the averaged ones."""
    mean = SEND_INTERVAL_S[traffic_class]
    if traffic_class in PERIODIC_CLASSES:
        return now_us + to_us(mean)
    return now_us + to_us(stream.uniform(0.5 * mean, 1.5 * mean))
