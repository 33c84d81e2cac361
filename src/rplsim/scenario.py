"""Experiment descriptions: scenario schema, topologies, and traffic profiles.

A scenario is a JSON document naming the topology family, objective
function, reception ratio, node count, duration, and seed, with optional
medium/protocol/energy overrides.  Topology generation is deterministic
given (config, seed); the grid family uses no randomness at all.

Four healthcare traffic classes exist.  Sensors are sorted by id and
partitioned into contiguous blocks as equal as possible, assigned in the
fixed class order below, so any node count gets a balanced mix.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field, fields, replace

from .engine import to_us
from .medium import MediumConfig
from .rpl import ProtocolConfig
from .telemetry import EnergyCurrents, TRAFFIC_CLASSES

UNIFORM_JITTER = "uniform-jitter"
FIXED = "fixed"

MAX_TOPOLOGY_ATTEMPTS = 1000


@dataclass(frozen=True)
class TrafficClass:
    name: str
    mean_interval_s: float
    jitter_mode: str


TRAFFIC_PROFILES = {
    "high-critical": TrafficClass("high-critical", 10.0, UNIFORM_JITTER),
    "critical": TrafficClass("critical", 20.0, UNIFORM_JITTER),
    "low-critical": TrafficClass("low-critical", 300.0, FIXED),
    "temperature": TrafficClass("temperature", 3600.0, UNIFORM_JITTER),
}


class ConfigError(Exception):
    """A scenario or sweep document failed validation; message names the field."""


@dataclass
class ScenarioConfig:
    node_count: int
    topology: str
    objective: str
    rx_success_ratio: float
    seed: int = 1
    area_side_m: float = 300.0
    grid_spacing_m: float = 60.0
    duration_s: float = 900.0
    warmup_s: float = 60.0
    scenario_id: str = ""
    traffic_classes: tuple[str, ...] = TRAFFIC_CLASSES
    medium: MediumConfig = field(default_factory=MediumConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    currents: EnergyCurrents = field(default_factory=EnergyCurrents)

    def __post_init__(self):
        if not self.scenario_id:
            self.scenario_id = (f"{self.topology}{self.node_count}"
                                f"_{self.objective}"
                                f"_rx{round(self.rx_success_ratio * 100)}")
        self.medium = replace(self.medium,
                              rx_success_ratio=self.rx_success_ratio)


def _require(cond: bool, name: str, problem: str, value) -> None:
    if not cond:
        raise ConfigError(f"{name}: {problem} (got {value!r})")


def _is_number(value, kinds=(int, float)) -> bool:
    """isinstance(value, kinds), except that JSON booleans are no numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _build_section(name: str, raw: dict, cls):
    """Build an override section; each value must match its field's type."""
    _require(isinstance(raw, dict), name, "must be an object", raw)
    types = {f.name: f.type for f in fields(cls)}
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"{name}.{key}: unknown field")
        kinds = int if types[key] == "int" else (int, float)
        _require(_is_number(value, kinds), f"{name}.{key}",
                 f"must be of type {types[key]}", value)
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a raw JSON document and build a ScenarioConfig from it."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario: document must be a JSON object")
    allowed = {f.name for f in fields(ScenarioConfig)}
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown field")
    for key in ("node_count", "topology", "objective", "rx_success_ratio"):
        if key not in raw:
            raise ConfigError(f"{key}: required field is missing")

    node_count = raw["node_count"]
    _require(_is_number(node_count, int) and node_count >= 2,
             "node_count", "must be an integer >= 2", node_count)
    topology = raw["topology"]
    _require(topology in ("random", "grid"),
             "topology", "must be 'random' or 'grid'", topology)
    objective = raw["objective"]
    _require(objective in ("of0", "etx"),
             "objective", "must be 'of0' or 'etx'", objective)
    rx = raw["rx_success_ratio"]
    _require(_is_number(rx) and 0.0 <= rx <= 1.0,
             "rx_success_ratio", "must be a number within [0, 1]", rx)

    seed = raw.get("seed", 1)
    _require(_is_number(seed, int), "seed", "must be an integer", seed)
    duration = raw.get("duration_s", 900.0)
    warmup = raw.get("warmup_s", 60.0)
    _require(_is_number(duration) and duration > 0,
             "duration_s", "must be positive", duration)
    _require(_is_number(warmup) and warmup >= 0,
             "warmup_s", "must be >= 0", warmup)
    _require(duration > warmup, "duration_s",
             f"must exceed warmup_s={warmup}", duration)
    area = raw.get("area_side_m", 300.0)
    _require(_is_number(area) and area > 0,
             "area_side_m", "must be positive", area)
    spacing = raw.get("grid_spacing_m", 60.0)
    _require(_is_number(spacing) and spacing > 0,
             "grid_spacing_m", "must be positive", spacing)

    classes = raw.get("traffic_classes", list(TRAFFIC_CLASSES))
    _require(isinstance(classes, (list, tuple)), "traffic_classes",
             "must be a list of class names", classes)
    for cls in classes:
        _require(cls in TRAFFIC_PROFILES, "traffic_classes",
                 f"unknown class (choose from {sorted(TRAFFIC_PROFILES)})", cls)

    medium = _build_section("medium", raw.get("medium", {}), MediumConfig)
    if "rx_success_ratio" in raw.get("medium", {}):
        raise ConfigError("medium.rx_success_ratio: not allowed; the "
                          "top-level rx_success_ratio sets it")
    protocol = _build_section("protocol", raw.get("protocol", {}), ProtocolConfig)
    currents = _build_section("currents", raw.get("currents", {}), EnergyCurrents)

    cfg = ScenarioConfig(
        node_count=node_count, topology=topology, objective=objective,
        rx_success_ratio=float(rx), seed=seed,
        area_side_m=float(area), grid_spacing_m=float(spacing),
        duration_s=float(duration), warmup_s=float(warmup),
        scenario_id=raw.get("scenario_id", ""),
        traffic_classes=tuple(classes),
        medium=medium, protocol=protocol, currents=currents)
    if cfg.topology == "grid":
        _require(cfg.grid_spacing_m <= cfg.medium.tx_range_m, "grid_spacing_m",
                 f"must not exceed medium.tx_range_m={cfg.medium.tx_range_m} "
                 "(lattice would be disconnected)", cfg.grid_spacing_m)
    return cfg


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

def unit_disk_connected(positions: dict[int, tuple[float, float]],
                        tx_range: float) -> bool:
    """True when the closed-boundary unit-disk graph is one component."""
    ids = list(positions)
    if len(ids) <= 1:
        return True
    seen = {ids[0]}
    frontier = deque([ids[0]])
    while frontier:
        a = frontier.popleft()
        for b in ids:
            if b not in seen and math.dist(positions[a], positions[b]) <= tx_range:
                seen.add(b)
                frontier.append(b)
    return len(seen) == len(ids)


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
    if spacing > cfg.medium.tx_range_m:
        raise ConfigError(
            f"grid_spacing_m: must not exceed medium.tx_range_m="
            f"{cfg.medium.tx_range_m} (got {spacing})")
    cols = math.isqrt(n)
    if cols * cols < n:
        cols += 1
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
    """Next application send: exact period for fixed classes, uniform jitter
    over [T/2, 3T/2] for the averaged ones."""
    profile = TRAFFIC_PROFILES[traffic_class]
    mean = profile.mean_interval_s
    if profile.jitter_mode == FIXED:
        return now_us + to_us(mean)
    return now_us + to_us(stream.uniform(0.5 * mean, 1.5 * mean))
