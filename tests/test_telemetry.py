"""Energy ledger arithmetic, packet accounting, trace encoding and replay."""

import json

import pytest

from oracles import record_dict, replay_energy
from rplsim.engine import to_us
from rplsim.scenario import ScenarioConfig
from rplsim.simulate import run_scenario
from rplsim.telemetry import (CPU, DROP_CAUSES, TRACE_FIELDS, EnergyCurrents,
                              EnergyLedger, MetricsReport, RX, TraceRecorder,
                              TX)
from test_simulate import run_trace_case


class TestLedger:
    def test_zero_duration_is_a_noop(self):
        ledger = EnergyLedger()
        ledger.charge(TX, 0)
        assert ledger.tx_us == 0

    def test_charges_accumulate_per_state(self):
        ledger = EnergyLedger()
        ledger.charge(TX, 1000)
        ledger.charge(RX, 2000)
        ledger.charge(TX, 500)
        assert (ledger.tx_us, ledger.rx_us, ledger.lpm_us) == (1500, 2000, 0)

    def test_radio_window_also_books_cpu_time(self):
        ledger = EnergyLedger()
        ledger.charge(TX, 1234)
        assert ledger.cpu_us == 1234
        ledger.charge(RX, 766)
        assert ledger.cpu_us == 2000
        ledger.charge(CPU, 1000)
        assert (ledger.tx_us, ledger.rx_us, ledger.cpu_us) == (1234, 766, 3000)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger().charge(TX, -1)

    def test_unknown_state_rejected(self):
        # low-power time is not chargeable: finalize alone sets lpm_us
        for state in ("sleepwalk", "lpm"):
            with pytest.raises(ValueError, match="unknown energy state"):
                EnergyLedger().charge(state, 10)

    def test_finalize_partitions_cpu_time(self):
        ledger = EnergyLedger()
        ledger.charge(CPU, to_us(1.5))
        ledger.finalize(to_us(900.0))
        assert ledger.cpu_us + ledger.lpm_us == to_us(900.0)

    def test_idle_node_power(self):
        ledger = EnergyLedger()
        ledger.finalize(to_us(900.0))
        assert ledger.average_power_mw(to_us(900.0)) == \
            pytest.approx(0.0545 * 3.0)

    def test_one_second_tx_power(self):
        ledger = EnergyLedger()
        ledger.charge(TX, to_us(1.0))
        ledger.finalize(to_us(900.0))
        power = ledger.average_power_mw(to_us(900.0))
        assert power == pytest.approx(
            (1 * 17.4 + 1 * 1.8 + 899 * 0.0545) * 3 / 900)
        assert power == pytest.approx(0.2273, abs=5e-5)

    def test_zero_elapsed_power_is_an_error(self):
        with pytest.raises(ValueError):
            EnergyLedger().average_power_mw(0)

    def test_custom_currents(self):
        ledger = EnergyLedger(EnergyCurrents(tx_ma=10.0, voltage_v=2.0))
        ledger.charge(TX, to_us(9.0))
        # 9 s of tx at 10 mA plus the same 9 s of cpu at the default 1.8 mA
        assert ledger.total_energy_mj() == pytest.approx((90 + 16.2) * 2.0)
        assert ledger.total_energy_mj() == pytest.approx(212.4)


class TestMetricsReport:
    def test_pdr_ratio(self):
        report = MetricsReport()
        for i in range(100):
            outcome = "delivered" if i < 87 else "mac-failure"
            report.record_packet("critical", outcome, hops=1, latency_us=10)
        assert report.pdr() == pytest.approx(0.87)

    def test_zero_sent_reports_absent(self):
        report = MetricsReport()
        assert report.pdr() is None
        assert report.pdr("temperature") is None

    def test_per_class_sums_match_totals(self):
        report = MetricsReport()
        report.record_packet("critical", "delivered", 1, 5)
        report.record_packet("high-critical", "no-route")
        report.record_packet("temperature", "ttl")
        assert report.total_sent() == 3
        assert report.total_delivered() == 1
        assert sum(report.sent.values()) == report.total_sent()
        assert sum(report.delivered.values()) == report.total_delivered()

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            MetricsReport().record_packet("critical", "vanished")

    def test_conservation_identity(self):
        report = MetricsReport()
        outcomes = ["delivered", "no-route", "mac-failure", "queue-overflow",
                    "ttl", "delivered"]
        for outcome in outcomes:
            report.record_packet("critical", outcome, 1, 1)
        drops = sum(report.drops_by_cause(c)
                    for c in ("no-route", "mac-failure", "queue-overflow",
                              "ttl"))
        assert report.total_delivered() + drops == report.total_sent()

    def test_converges_when_every_sensor_is_joined_at_once(self):
        # three joins among two sensors are not convergence while one left
        report = MetricsReport(sensors=2)
        for joined, now in ((True, 10), (False, 20), (True, 30)):
            report.join_changed(joined, now)
            assert report.convergence_us is None
        report.join_changed(True, 40)
        assert report.convergence_us == 40
        report.join_changed(False, 50)
        report.join_changed(True, 60)
        assert report.convergence_us == 40      # the first time only


class TestConvergence:
    def test_two_node_convergence_before_first_interval_ends(self):
        cfg = ScenarioConfig(node_count=2, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=60.0,
                             warmup_s=10.0, traffic_classes=())
        result = run_scenario(cfg, positions={0: (0.0, 0.0), 1: (50.0, 0.0)})
        # the sink's first DIO fires inside [i_min/2, i_min); allow airtime
        assert result.metrics.convergence_us is not None
        assert result.metrics.convergence_us <= to_us(4.2)

    def test_disconnected_node_means_no_convergence(self):
        cfg = ScenarioConfig(node_count=3, topology="random", objective="of0",
                             rx_success_ratio=1.0, duration_s=120.0,
                             warmup_s=10.0, traffic_classes=())
        positions = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (900.0, 0.0)}
        result = run_scenario(cfg, positions=positions)
        assert result.metrics.convergence_us is None

    def test_twenty_node_cold_start_converges_before_warmup(self):
        for seed in range(1, 11):
            cfg = ScenarioConfig(node_count=20, topology="random",
                                 objective="of0", rx_success_ratio=1.0,
                                 duration_s=120.0, warmup_s=60.0, seed=seed)
            result = run_scenario(cfg)
            assert result.metrics.convergence_us is not None
            assert result.metrics.convergence_us < to_us(60.0), \
                f"seed {seed} converged late"


class TestTraceEncoding:
    def test_lines_match_the_json_module(self, tmp_path):
        trace = run_trace_case("every-record-shape").trace
        records = [record_dict(r) for r in trace.records]
        # the case holds every kind, a detach and every drop cause
        assert {r["ev"] for r in records} == set(TRACE_FIELDS)
        assert any(r["ev"] == "parent" and r["parent"] is None
                   for r in records)
        assert ({r["cause"] for r in records if r["ev"] == "drop"}
                == set(DROP_CAUSES))
        for record in records:
            for key, value in record.items():
                assert isinstance(value, TRACE_FIELDS[record["ev"]][key])
                assert (value is None or type(value) is int
                        or json.dumps(value) == f'"{value}"'), (key, value)
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        assert lines == [json.dumps(r, sort_keys=True, separators=(",", ":"))
                         + "\n" for r in records]

    def test_synthetic_lines_match_the_json_module(self, tmp_path):
        t, src, size, frame = 2_454_564, 3, 64, 7
        later, other = 2_454_565, 8
        airing = [(t, "rx", node, src, size, frame) for node in range(4, 40)]
        records = [
            (t - 2048, "tx", src, "dio", size, frame), *airing[:3],
            # consecutive rx that differ in exactly one shared field
            (later, "rx", 1, src, size, frame),
            (later, "rx", 2, src, size, frame),
            (later, "rx", 2, other, size, frame),
            (later, "rx", 2, other, 10, frame),
            (later, "rx", 2, other, 10, other),
            # an rx run split by a tx and by a fwd, then taken up again
            (t, "rx", 2, src, size, frame), (t, "tx", 9, "ack", 10, 11),
            (t, "rx", 3, src, size, frame), (t, "fwd", 4, "3-1"),
            (t, "rx", 4, src, size, frame),
            (t, "send", 3, "3-2", "critical"),
            (later, "deliver", 0, "3-2", 2, 1001),
            (later, "drop", 5, "5-1", "queue-overflow"),
            (later, "parent", 6, None, 65535), (later, "parent", 6, 2, 768),
        ]
        # pad to 500 records: an airing's rx run then crosses record 512,
        # where a writer that wrote 512-line chunks would cut it
        records += [(t + k, "tx", 1, "data", 80, k)
                    for k in range(500 - len(records))]
        records += airing + records[:40]
        trace = TraceRecorder(enabled=True)
        for record in records:
            trace.emit(record)
        assert {r[1] for r in records} == set(TRACE_FIELDS)
        expected = [json.dumps(record_dict(r), sort_keys=True,
                               separators=(",", ":")) + "\n" for r in records]
        written = []
        for name in ("first.jsonl", "again.jsonl"):
            trace.write_jsonl(str(tmp_path / name))
            with open(tmp_path / name, encoding="utf-8", newline="") as fh:
                written.append(fh.readlines())
        assert written == [expected, expected]

    @pytest.mark.parametrize("record", [
        (5, "fwd", 1), (5, "fwd", 1, "1-1", 2), (5, "hop", 1, "1-1"),
        (5, "rx", 1, 0, 64), (5, "tx", 1, "dio", 64, 1, 0)],
        ids=["short", "long", "unknown-ev", "short-rx", "long-tx"])
    def test_malformed_record_raises(self, record, tmp_path):
        trace = TraceRecorder(enabled=True)
        trace.emit(record)
        with pytest.raises(KeyError):
            trace.write_jsonl(str(tmp_path / "trace.jsonl"))


class TestTraceReplay:
    def test_replay_reproduces_ledgers_exactly(self, tmp_path):
        cfg = ScenarioConfig(node_count=9, topology="grid", objective="etx",
                             rx_success_ratio=0.8, grid_spacing_m=60.0,
                             duration_s=200.0, warmup_s=30.0, seed=4)
        result = run_scenario(cfg, trace=True)
        path = tmp_path / "trace.jsonl"
        result.trace.write_jsonl(str(path))
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        records = [tuple(r[k] for k in TRACE_FIELDS[r["ev"]]) for r in lines]
        replayed = replay_energy(records,
                                 cfg.medium.bitrate_bps,
                                 to_us(cfg.protocol.cpu_process_s))
        for nid, ledger in result.ledgers.items():
            got = replayed[nid]
            assert got["tx_us"] == ledger.tx_us
            assert got["rx_us"] == ledger.rx_us
            assert got["cpu_us"] == ledger.cpu_us

    def test_radio_time_bounded_by_duration(self):
        cfg = ScenarioConfig(node_count=20, topology="random", objective="etx",
                             rx_success_ratio=0.8, duration_s=300.0,
                             warmup_s=30.0, seed=2)
        result = run_scenario(cfg)
        for ledger in result.ledgers.values():
            assert ledger.tx_us + ledger.rx_us <= result.elapsed_us
            assert ledger.cpu_us + ledger.lpm_us == result.elapsed_us
