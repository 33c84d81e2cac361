"""Deterministic discrete-event simulator of RPL upward routing in lossy
wireless sensor networks, comparing the OF0 and ETX/MRHOF objective
functions under healthcare-style traffic profiles."""

from .engine import (Event, SchedulingError, Simulator, derive_stream, to_s,
                     to_us)
from .medium import (Frame, FrameKind, Medium, MediumConfig, Outcome,
                     Transmission)
from .objective import (ETX_INITIAL, ETX_SCALE, INFINITE_RANK, MAX_PATH_COST,
                        MRHOF_ETX, OF0, PARENT_SWITCH_THRESHOLD, RANK_UNIT,
                        ROOT_RANK, etx_update, mrhof_path_cost, mrhof_rank,
                        mrhof_select_parent, of0_rank, of0_select_parent)
from .rpl import (DataPacket, DioMessage, Node, ProtocolConfig, TrickleState)
from .scenario import (ConfigError, ScenarioConfig, assign_traffic_classes,
                       generate_grid_topology, generate_random_topology,
                       generate_topology, load_scenario, next_send_time,
                       radio_links, scenario_from_dict, unit_disk_connected)
from .simulate import RunResult, run_scenario
from .telemetry import (DROP_CAUSES, EnergyCurrents, EnergyLedger,
                        MetricsReport, TRAFFIC_CLASSES, TraceRecorder)

__version__ = "0.1.0"
