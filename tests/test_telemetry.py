"""Energy ledger arithmetic, packet accounting and trace encoding."""

import gc
import json
import os
import pathlib
import signal
import time
import tracemalloc

import pytest

from rplsim.engine import to_us
from rplsim.scenario import ScenarioConfig
from rplsim.simulate import run_scenario
from rplsim.telemetry import (_CHUNK, CPU, DROP_CAUSES, TRACE_FIELDS,
                              TRAFFIC_CLASSES, EnergyCurrents, EnergyLedger,
                              MetricsReport, RX, TraceRecorder, TX)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
    def test_readme_table_lists_the_schema(self):
        text = README.read_text(encoding="utf-8")
        start = text.index("| `ev`", text.index("**Event trace**"))
        rows = []
        for line in text[start:text.index("\n\n", start)].splitlines()[2:]:
            ev, fields = line.split("|")[1:3]      # past header and rule
            rows.append((ev.strip(" `"), fields.strip(" `").split(", ")))
        assert rows == [(ev, list(fields)[2:])
                        for ev, fields in TRACE_FIELDS.items()]

    @pytest.mark.parametrize("record", [
        (5, "fwd", 1), (5, "fwd", 1, "1-1", 2), (5, "hop", 1, "1-1"),
        (5, "rx", 1), (5, "rx", 1, 0, 64, 1), (5, "tx", 1, "dio", 64, 1),
        (5, "deliver", 0, "1-1", 2, 1001), (5, "parent", 1, None),
        (5, "drop", 1, "1-1", "ttl", 2)],
        ids=["short", "long", "unknown-ev", "short-rx", "six-field-rx",
             "long-tx", "six-field-deliver", "short-parent", "long-drop"])
    def test_malformed_record_raises(self, record, tmp_path):
        trace = TraceRecorder(enabled=True)
        trace.emit(record)
        with pytest.raises(KeyError):
            trace.write_jsonl(str(tmp_path / "trace.jsonl"))


def synthetic(count: int) -> list[tuple]:
    """count records, the kinds in turn: every frame kind, traffic class and
    drop cause, and every third parent record a null parent."""
    records = []
    for t in range(count):
        node, pid, i = t % 40, f"{t % 40}-{t}", t % 4
        records.append([
            (t, "tx", node, ("dio", "dis", "data", "ack")[i], t),
            (t, "rx", node + 1, t - 1),
            (t, "send", node, pid, TRAFFIC_CLASSES[i]),
            (t, "fwd", node, pid),
            (t, "deliver", 0, pid),
            (t, "drop", node, pid, DROP_CAUSES[i]),
            (t, "parent", node, None if t % 3 == 0 else node + 1, 256 * t),
        ][t % len(TRACE_FIELDS)])
    return records


def json_lines(records: list[tuple]) -> str:
    """The JSONL text of records as the json module writes each one."""
    return "".join(json.dumps(dict(zip(TRACE_FIELDS[r[1]], r)),
                              sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestChunkedTrace:
    """A recorder encodes every _CHUNK records into text as they come."""

    def test_lines_and_records_across_chunks(self, tmp_path):
        emitted = synthetic(2 * _CHUNK + 100)
        trace = TraceRecorder(enabled=True)
        for i, record in enumerate(emitted):
            if i in (0, 5, _CHUNK, _CHUNK + 7):    # each read, then emits
                assert trace.records == emitted[:i]
            trace.emit(record)
        assert trace.records == emitted
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        assert path.read_bytes() == json_lines(emitted).encode()
        assert trace.records == emitted

    def test_records_is_one_list_until_the_next_emit(self):
        trace = TraceRecorder(enabled=True)
        emitted = synthetic(_CHUNK + 2)
        for record in emitted[:-1]:
            trace.emit(record)
        view = trace.records
        view[:] = view[:3]          # planted records stay until an emit
        assert trace.records is view
        trace.emit(emitted[-1])
        assert trace.records == emitted

    def test_disabled_recorder_keeps_nothing(self, tmp_path):
        trace = TraceRecorder(enabled=False)
        for record in synthetic(_CHUNK + 1):
            trace.emit(record)
        assert trace.records == []
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        assert path.read_bytes() == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open files in /proc/self/fd")
class TestSpilledTrace:
    """A recorder streams each full chunk into an anonymous temporary file,
    opened at the first one and closed when the recorder goes."""

    def test_dropping_a_recorder_closes_its_file(self):
        fds = open_fds()
        trace = TraceRecorder(enabled=True)
        emitted = synthetic(2 * _CHUNK)
        for record in emitted[:_CHUNK - 1]:
            trace.emit(record)
        assert open_fds() == fds            # a short trace opens no file
        for record in emitted[_CHUNK - 1:]:
            trace.emit(record)
        assert open_fds() == fds + 1        # one file holds every chunk
        del trace
        assert open_fds() == fds

    def test_each_write_holds_the_whole_trace(self, tmp_path):
        emitted = synthetic(3 * _CHUNK + 5)
        trace = TraceRecorder(enabled=True)
        for record in emitted[:2 * _CHUNK + 1]:
            trace.emit(record)
        first, again, later = (tmp_path / f"{name}.jsonl"
                               for name in ("first", "again", "later"))
        trace.write_jsonl(str(first))
        trace.write_jsonl(str(again))
        assert (first.read_bytes() == again.read_bytes()
                == json_lines(emitted[:2 * _CHUNK + 1]).encode())
        for record in emitted[2 * _CHUNK + 1:]:
            trace.emit(record)
        trace.write_jsonl(str(later))
        assert later.read_bytes() == json_lines(emitted).encode()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_copy_leaves_the_parents_file_alone(self, tmp_path):
        """A child that drops its copy closes only its own descriptor: it
        writes nothing to the file the two share, and removes nothing."""
        emitted = synthetic(2 * _CHUNK + 5)
        trace = TraceRecorder(enabled=True)
        for record in emitted:
            trace.emit(record)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                fds = open_fds()
                del trace
                gc.collect()
                code = 0 if open_fds() == fds - 1 else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not exit within 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert trace.records == emitted
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        assert path.read_bytes() == json_lines(emitted).encode()


def test_a_traced_run_holds_under_one_chunk_of_text(tmp_path):
    """The trace of a run whose records fill three chunks and start a fourth
    costs less live heap than one chunk of its JSONL text: the chunks are on
    disk, and the tail of 1,390 records is all the recorder holds."""
    cfg = ScenarioConfig(seed=1, node_count=100, topology="random",
                         objective="of0", rx_success_ratio=1.0,
                         duration_s=240.0)
    live = {}
    for trace in (False, True):
        gc.collect()
        tracemalloc.start()
        try:
            result = run_scenario(cfg, trace=trace)
            gc.collect()                # and empty the tuple free lists
            live[trace] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    records = len(result.trace.records)
    assert records // _CHUNK == 3
    path = tmp_path / "trace.jsonl"
    result.trace.write_jsonl(str(path))
    chunk_text = _CHUNK * path.stat().st_size / records
    assert live[True] - live[False] < chunk_text, (live, chunk_text)
