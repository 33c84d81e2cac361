"""Scenario schema, topology generators, traffic-class machinery."""

import json
import math

import pytest

from rplsim.engine import derive_stream
from rplsim.objective import MRHOF_ETX, OF0
from rplsim.scenario import (PERIODIC_CLASSES, SEND_INTERVAL_S, ConfigError,
                             assign_traffic_classes, generate_grid_topology,
                             generate_random_topology, load_schema,
                             scenario_from_dict,
                             unit_disk_connected)
from rplsim.telemetry import TRAFFIC_CLASSES
from test_cli import refusal

BASE = {"node_count": 20, "topology": "random", "objective": "of0",
        "rx_success_ratio": 1.0}


def cfg_with(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return scenario_from_dict(raw)


class TestValidation:
    def test_minimal_document(self):
        cfg = scenario_from_dict(dict(BASE))
        assert cfg.node_count == 20
        assert cfg.scenario_id == "random20_of0_rx100"

    def test_bad_traffic_class(self):
        assert refusal(dict(BASE, traffic_classes=["video"])) \
            .startswith("traffic_classes[0]: must be one of")

    def test_medium_override_applies(self):
        cfg = cfg_with(medium={"max_transmissions": 6})
        assert cfg.medium.max_transmissions == 6

    # built in Python as well, by refusal: a tuple, not a JSON list
    @pytest.mark.parametrize("field, values", [
        ("traffic_classes[0]", {"traffic_classes": ("bogus",)}),
    ])
    def test_config_built_in_python_meets_the_schema(self, field, values):
        assert refusal(dict(BASE, **values)).startswith(f"{field}: ")

    @pytest.mark.parametrize("protocol, medium, field", [
        # the longest trickle interval is i_min << doublings
        ({"trickle_i_min_s": 0.008, "trickle_doublings": 20}, {}, None),
        ({"trickle_i_min_s": 0.001, "trickle_doublings": 7}, {}, None),
        ({"trickle_i_min_s": 0.001, "trickle_doublings": 6}, {},
         "protocol.trickle_i_min_s"),
        # a DIS wait can be 0.9x its period
        ({"dis_period_s": 0.15}, {}, None),
        ({"dis_period_s": 0.14}, {}, "protocol.dis_period_s"),
        # the floor is the backoff window plus the control frame's airtime
        ({"dis_period_s": 0.004}, {"backoff_window_s": 0.001}, None),
        ({"dis_period_s": 0.003}, {"backoff_window_s": 0.001},
         "protocol.dis_period_s"),
        # the 1 us housekeeping floor, and the window that rounds to 2 us
        ({"housekeeping_period_s": 1e-6}, {}, None),
        ({}, {"backoff_window_s": 1.5e-6}, None),
    ])
    def test_control_timers_no_faster_than_the_radio_sends(
            self, protocol, medium, field):
        # each edge's two sides; REFUSED in test_cli.py keeps values
        # further past them
        document = dict(BASE, protocol=protocol, medium=medium)
        if field is None:
            scenario_from_dict(document)
        else:
            assert refusal(document).startswith(f"{field}: ")

    def test_schemas_name_exactly_the_codes_vocabularies(self):
        # a name in the code alone would be refused in every config, and a
        # name in a schema alone would be accepted but never run
        scenario = load_schema("scenario")["properties"]
        assert scenario["traffic_classes"]["items"]["enum"] \
            == list(TRAFFIC_CLASSES)
        assert scenario["objective"]["enum"] == [OF0, MRHOF_ETX]
        # generate_topology builds "grid" and, for any other name, "random"
        assert scenario["topology"]["enum"] == ["random", "grid"]
        # a sweep's grid values meet the scenario schema's rules, which
        # load_sweep fills in, so its own file restates none of them
        sweep = json.dumps(load_schema("sweep"))
        assert '"enum"' not in sweep and '"items"' not in sweep
        assert set(SEND_INTERVAL_S) == set(TRAFFIC_CLASSES)
        assert PERIODIC_CLASSES <= set(SEND_INTERVAL_S)


class TestRandomTopology:
    def test_sink_at_center_and_connected(self):
        cfg = cfg_with(area_side_m=300.0)
        positions = generate_random_topology(cfg, derive_stream(1, "topology"))
        assert positions[0] == (150.0, 150.0)
        assert len(positions) == 20
        assert unit_disk_connected(positions, cfg.medium.tx_range_m)

    def test_two_nodes_in_small_area_always_connect(self):
        cfg = cfg_with(node_count=2, area_side_m=50.0)
        positions = generate_random_topology(cfg, derive_stream(1, "topology"))
        assert math.dist(positions[0], positions[1]) <= 100.0

    def test_same_seed_reproduces_layout(self):
        cfg = cfg_with(area_side_m=300.0)
        a = generate_random_topology(cfg, derive_stream(7, "topology"))
        b = generate_random_topology(cfg, derive_stream(7, "topology"))
        assert a == b

    def test_hopeless_density_raises(self):
        cfg = cfg_with(area_side_m=10_000.0)
        with pytest.raises(ConfigError, match="density"):
            generate_random_topology(cfg, derive_stream(1, "topology"))


class TestGridTopology:
    def test_three_by_three_sink_center(self):
        cfg = cfg_with(node_count=9, topology="grid", grid_spacing_m=60.0)
        positions = generate_grid_topology(cfg)
        assert positions[0] == (60.0, 60.0)
        xs = {p[0] for p in positions.values()}
        ys = {p[1] for p in positions.values()}
        assert xs == ys == {0.0, 60.0, 120.0}

    def test_twenty_nodes_use_five_columns(self):
        cfg = cfg_with(node_count=20, topology="grid", grid_spacing_m=60.0)
        positions = generate_grid_topology(cfg)
        xs = sorted({p[0] for p in positions.values()})
        ys = sorted({p[1] for p in positions.values()})
        assert len(xs) == 5 and len(ys) == 4
        # sink takes the occupied cell nearest the lattice centroid
        cx = sum(p[0] for p in positions.values()) / 20
        cy = sum(p[1] for p in positions.values()) / 20
        d_sink = math.dist(positions[0], (cx, cy))
        assert all(math.dist(p, (cx, cy)) >= d_sink - 1e-9
                   for p in positions.values())

    def test_grid_is_deterministic_without_randomness(self):
        cfg = cfg_with(node_count=20, topology="grid", grid_spacing_m=60.0)
        assert generate_grid_topology(cfg) == generate_grid_topology(cfg)


class TestClassAssignment:
    def test_four_sensors_one_per_class(self):
        got = assign_traffic_classes([1, 2, 3, 4])
        assert list(got.values()) == ["high-critical", "critical",
                                      "low-critical", "temperature"]

    def test_hundred_sensors_split_evenly(self):
        got = assign_traffic_classes(list(range(1, 101)))
        sizes = {}
        for cls in got.values():
            sizes[cls] = sizes.get(cls, 0) + 1
        assert sizes == {"high-critical": 25, "critical": 25,
                         "low-critical": 25, "temperature": 25}

    def test_remainder_spreads_across_leading_blocks(self):
        got = assign_traffic_classes([1, 2, 3, 4, 5, 6])
        sizes = [sum(1 for c in got.values() if c == name)
                 for name in ("high-critical", "critical", "low-critical",
                              "temperature")]
        assert sizes == [2, 2, 1, 1]

    def test_blocks_are_contiguous_in_id_order(self):
        got = assign_traffic_classes(list(range(1, 21)))
        order = [got[nid] for nid in sorted(got)]
        # class label changes at most 3 times over the id-sorted sensors
        changes = sum(1 for a, b in zip(order, order[1:]) if a != b)
        assert changes == 3

    def test_subset_of_classes(self):
        got = assign_traffic_classes([1, 2, 3, 4], enabled=("low-critical",))
        assert set(got.values()) == {"low-critical"}

    def test_empty_enabled_assigns_nothing(self):
        assert assign_traffic_classes([1, 2, 3], enabled=()) == {}

