"""Deterministic discrete-event simulator of RPL upward routing in lossy
wireless sensor networks, comparing the OF0 and ETX/MRHOF objective
functions under healthcare-style traffic profiles."""

from .engine import derive_stream
from .scenario import (ConfigError, ScenarioConfig, generate_topology,
                       scenario_from_dict)
from .simulate import run_scenario
