"""Scenario schema, topology generators, traffic-class machinery."""

import dataclasses
import json
import math

import pytest

from rplsim.cli import main
from rplsim.engine import derive_stream, to_us
from rplsim.medium import MediumConfig
from rplsim.rpl import ProtocolConfig
from rplsim.scenario import (ConfigError, ScenarioConfig,
                             assign_traffic_classes, generate_grid_topology,
                             generate_random_topology, next_send_time,
                             scenario_from_dict, unit_disk_connected)
from rplsim.simulate import run_scenario

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

    def test_rx_ratio_out_of_range_names_field(self):
        with pytest.raises(ConfigError, match="rx_success_ratio"):
            cfg_with(rx_success_ratio=1.3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="tx_power"):
            cfg_with(tx_power=17)

    def test_unknown_medium_key_rejected(self):
        with pytest.raises(ConfigError, match="medium.antenna"):
            cfg_with(medium={"antenna": 3})

    def test_missing_required_field(self):
        raw = dict(BASE)
        del raw["objective"]
        with pytest.raises(ConfigError, match="objective"):
            scenario_from_dict(raw)

    def test_node_count_floor(self):
        with pytest.raises(ConfigError, match="node_count"):
            cfg_with(node_count=1)

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ConfigError, match="duration_s"):
            cfg_with(duration_s=50.0, warmup_s=60.0)

    def test_grid_spacing_bounded_by_range(self):
        with pytest.raises(ConfigError, match="grid_spacing_m"):
            cfg_with(topology="grid", grid_spacing_m=120.0)

    def test_bad_traffic_class(self):
        with pytest.raises(ConfigError, match="traffic_classes"):
            cfg_with(traffic_classes=["video"])

    def test_medium_override_applies(self):
        cfg = cfg_with(medium={"max_transmissions": 6})
        assert cfg.medium.max_transmissions == 6

    def test_rx_ratio_is_every_links_ratio(self):
        cfg = cfg_with(node_count=5, topology="grid", rx_success_ratio=0.8,
                       warmup_s=0.0, duration_s=1.0)
        medium = run_scenario(cfg).nodes[0].medium
        assert {ratio for radio in medium.radios.values()
                for ratio in radio.neighbors.values()} == {0.8}

    def test_medium_rx_ratio_points_to_top_level_field(self):
        with pytest.raises(ConfigError, match="^medium.rx_success_ratio: "):
            cfg_with(medium={"rx_success_ratio": 0.1})

    def test_section_value_of_wrong_type_names_field(self):
        with pytest.raises(ConfigError, match="medium.max_transmissions"):
            cfg_with(medium={"max_transmissions": True})
        with pytest.raises(ConfigError, match="currents.tx_ma"):
            cfg_with(currents={"tx_ma": "17"})

    def test_non_object_section_rejected(self):
        with pytest.raises(ConfigError, match="protocol"):
            cfg_with(protocol=[1, 2])

    def test_dis_period_checked_at_its_jitter_floor(self):
        # 0.9x rounds to 0 us, below any radio's send time
        with pytest.raises(ConfigError, match="^protocol.dis_period_s: "):
            cfg_with(protocol={"dis_period_s": 5e-7})

    def test_config_built_in_python_is_checked(self):
        # a 0.9 ms DIS wait queues DISs faster than the radio sends them;
        # running this config would grow until the process is killed
        with pytest.raises(ConfigError, match="^protocol.dis_period_s: "):
            ScenarioConfig(node_count=20, topology="random", objective="etx",
                           rx_success_ratio=0.8,
                           protocol=ProtocolConfig(dis_period_s=0.001))

    @pytest.mark.parametrize("field, values", [
        ("rx_success_ratio", {"rx_success_ratio": "high"}),
        ("medium.bitrate_bps", {"medium": MediumConfig(bitrate_bps=0)}),
        ("duration_s", {"duration_s": math.nan}),
        ("node_count", {"node_count": 1}),
        ("protocol.queue_capacity",
         {"protocol": ProtocolConfig(queue_capacity=0)}),
        ("protocol.trickle_doublings",
         {"protocol": ProtocolConfig(trickle_doublings=2**27)}),
        ("traffic_classes[0]", {"traffic_classes": ("bogus",)}),
    ])
    def test_config_built_in_python_meets_the_schema(
            self, tmp_path, capsys, field, values):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(**dict(BASE, **values))
        assert str(err.value).startswith(f"{field}: ")
        # the same document through `rplsim run` fails with the same text
        document = dict(BASE, **{
            key: dataclasses.asdict(value)
            if dataclasses.is_dataclass(value) else value
            for key, value in values.items()})
        config = tmp_path / "c.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert f"config error: {err.value}\n" in capsys.readouterr().err

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
    ])
    def test_control_timers_no_faster_than_the_radio_sends(
            self, protocol, medium, field):
        if field is None:
            cfg_with(protocol=protocol, medium=medium)
        else:
            with pytest.raises(ConfigError, match=field):
                cfg_with(protocol=protocol, medium=medium)

    def test_sub_microsecond_timer_periods_rejected(self):
        cfg_with(protocol={"housekeeping_period_s": 1e-6})
        for name in ("trickle_i_min_s", "housekeeping_period_s"):
            with pytest.raises(ConfigError, match=f"^protocol.{name}: "):
                cfg_with(protocol={name: 4e-7})


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


class TestSendTimes:
    def test_low_critical_is_exactly_periodic(self):
        stream = derive_stream(1, "traffic", 3)
        assert next_send_time("low-critical", 0, stream) == to_us(300.0)
        assert next_send_time("low-critical", to_us(300.0), stream) \
            == to_us(600.0)

    def test_high_critical_gap_bounds(self):
        stream = derive_stream(1, "traffic", 4)
        gaps = [next_send_time("high-critical", 0, stream)
                for _ in range(10_000)]
        assert all(to_us(5.0) <= g <= to_us(15.0) for g in gaps)

    def test_high_critical_gap_mean(self):
        stream = derive_stream(2, "traffic", 4)
        gaps = [next_send_time("high-critical", 0, stream)
                for _ in range(10_000)]
        mean_s = sum(gaps) / len(gaps) / 1e6
        assert abs(mean_s - 10.0) <= 0.2

    def test_temperature_interval_exceeds_short_runs(self):
        stream = derive_stream(1, "traffic", 5)
        gap = next_send_time("temperature", 0, stream)
        assert gap >= to_us(1800.0)
