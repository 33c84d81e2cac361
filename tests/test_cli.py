"""CLI surface: run/sweep/plot-data, schema errors, parallel equivalence."""

import ast
import concurrent.futures
import contextlib
import copy
import csv
import dataclasses
import gc
import io
import json
import math
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rplsim import cli
from rplsim.cli import (CSV_COLUMNS, load_sweep, main, sweep_schema,
                        sweep_tasks)
from rplsim.medium import MediumConfig
from rplsim.rpl import ProtocolConfig
from rplsim.scenario import (SCHEMA_KEYWORDS, ConfigError, ScenarioConfig,
                             load_scenario, load_schema, scenario_from_dict)
from rplsim.telemetry import EnergyCurrents

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "rplsim" / "schemas"

GOOD_CONFIG = {
    "node_count": 9,
    "topology": "grid",
    "objective": "of0",
    "rx_success_ratio": 1.0,
    "grid_spacing_m": 60.0,
    "duration_s": 150.0,
    "warmup_s": 30.0,
    "seed": 1,
}

SWEEP_SPEC = {
    "node_counts": [5, 9],
    "objectives": ["of0", "etx"],
    "rx_ratios": [1.0],
    "topologies": ["grid"],
    "seeds_per_cell": 3,
    "base_seed": 1,
    "base": {"grid_spacing_m": 60.0, "duration_s": 150.0, "warmup_s": 30.0},
}


# scenario documents that must be refused at load time: each case's prefix
# starts the one text every build gives it (see refusal), and the case's
# keys come first in its document, before GOOD_CONFIG's; each would
# otherwise hang, crash mid-run or run on a wrong value.  With the bound
# walk (test_schema_bounds_reject_first_value_past_them), which sends the
# first value past every schema bound, this is the one table of refusals.
# The walk holds each bound's edge, so an entry past a schema bound is only
# an overflow guard: a value that would crash the run were the bound gone
REFUSED = {
    "trickle_i_min_s": ("protocol.trickle_i_min_s:",
                        {"protocol": {"trickle_i_min_s": 1e-7}}),
    "trickle_doublings": ("protocol.trickle_doublings:",
                          {"protocol": {"trickle_doublings": 1.5}}),
    "rx_success_ratio": ("rx_success_ratio:", {"rx_success_ratio": True}),
    "seed": ("seed:", {"seed": True}),
    "medium.max_transmissions: must be of type integer": (
        "medium.max_transmissions: must be of type integer",
        {"medium": {"max_transmissions": True}}),
    "currents.tx_ma: must be of type number": (
        "currents.tx_ma: must be of type number",
        {"currents": {"tx_ma": "17"}}),
    "protocol: must be of type object": ("protocol: must be of type object",
                                         {"protocol": [1, 2]}),
    "medium.rx_success_ratio": ("medium.rx_success_ratio: unknown field",
                                {"medium": {"rx_success_ratio": 0.1}}),
    "medium.data_payload_bytes: unknown field": (
        "medium.data_payload_bytes: unknown field",
        {"medium": {"data_payload_bytes": 30}}),
    "medium.data_header_bytes: unknown field": (
        "medium.data_header_bytes: unknown field",
        {"medium": {"data_header_bytes": 20}}),
    "protocol.etx_initial: unknown field": (
        "protocol.etx_initial: unknown field",
        {"protocol": {"etx_initial": 256}}),
    # 20 + 352 us is the 372 us timeout once rounded: each ACK would land on
    # its timeout's microsecond, where the timeout wins, and every unicast fail
    "medium.ack_timeout_s": ("medium.ack_timeout_s: must exceed turnaround",
                             {"medium": {"ack_turnaround_s": 0.0000196,
                                         "ack_timeout_s": 0.0003717}}),
    "traffic_classes": ("traffic_classes[0]:",
                        {"traffic_classes": [["critical"]]}),
    "duration_s": ("duration_s:", {"duration_s": math.inf}),
    # rounds to a zero-length run, whose average power is undefined
    "duration_s: must exceed warmup_s": ("duration_s: must exceed warmup_s",
                                         {"warmup_s": 0, "duration_s": 1e-7}),
    "grid_spacing_m: must not exceed medium.tx_range_m": (
        "grid_spacing_m: must not exceed medium.tx_range_m",
        {"grid_spacing_m": 120.0}),
    # rounds to a 1 us window: every backoff draws 0 and time stops
    "medium.backoff_window_s": ("medium.backoff_window_s: must be at least "
                                "2 us",
                                {"medium": {"backoff_window_s": 0.000001}}),
    # rounds to a zero-length timer
    "protocol.housekeeping_period_s: must be at least 1 us": (
        "protocol.housekeeping_period_s: must be at least 1 us",
        {"protocol": {"housekeeping_period_s": 4e-7}}),
    # control frames would queue faster than the radio sends them, and the
    # run grows until it is killed; test_scenario.py's timer edges hold
    # both sides of each edge
    "protocol.trickle_i_min_s": (
        "protocol.trickle_i_min_s: the longest trickle interval",
        {"protocol": {"trickle_i_min_s": 0.00001, "trickle_doublings": 0}}),
    "protocol.dis_period_s": ("protocol.dis_period_s: the shortest DIS wait",
                              {"protocol": {"dis_period_s": 0.001}}),
    # an expiry or an airtime past a float's range crashes the run or the
    # config's own checks with an OverflowError
    "protocol.parent_expiry_trickle_factor": (
        "protocol.parent_expiry_trickle_factor:",
        {"protocol": {"parent_expiry_trickle_factor": 1e308}}),
    "medium.ack_frame_bytes: must be <=": (
        "medium.ack_frame_bytes: must be <=",
        {"medium": {"ack_frame_bytes": 10**400}}),
    # past about 2.3e299 s, a candidate's expiry (the factor times the
    # longest trickle interval) overflows a float and crashes the run
    "protocol.trickle_i_min_s: must be <=": (
        "protocol.trickle_i_min_s: must be <=",
        {"protocol": {"trickle_i_min_s": 1e302}}),
    # the run's power and energy come out infinite
    "currents.voltage_v: must be <=": ("currents.voltage_v: must be <=",
                                       {"currents": {"voltage_v": 1e308}}),
    # the id follows from topology, node_count, objective and ratio
    "scenario_id: unknown field": ("scenario_id: unknown field",
                                   {"scenario_id": "x"}),
    # README's fault order: an unknown key before any bound, then the
    # schema's field order, not the document's
    "unknown key before a bound": ("bogus: unknown field",
                                   {"bogus": 1, "node_count": 1}),
    "schema order, not the document's": (
        "node_count:", {"rx_success_ratio": 2.0, "node_count": 1}),
}


def with_base(**fields):
    """SWEEP_SPEC with fields added to its base."""
    return dict(SWEEP_SPEC, base=dict(SWEEP_SPEC["base"], **fields))


# sweeps whose bad field must stop the sweep before its first run, each
# refused with a text that starts with the case's name; load_sweep refuses
# all but the "sweep cell" ones, whose cells break a cross-field rule
BAD_SWEEPS = {
    "objectives": {"node_counts": []},          # a required list is missing
    "seeds_per_cell": dict(SWEEP_SPEC, seeds_per_cell=True),
    "base.bogus": with_base(bogus=1),
    "base.duration_s": with_base(duration_s="x"),
    "base.medium.antenna": with_base(medium={"antenna": 3}),
    "rx_ratios[0]": dict(SWEEP_SPEC, rx_ratios=[True]),
    # the grid sets these on every task, so the base has no such field
    **{f"base.{key}": with_base(**{key: value})
       for key, value in (("topology", "random"), ("objective", "etx"),
                          ("rx_success_ratio", 0.5), ("node_count", 50),
                          ("seed", 7))},
    "sweep cell 0: duration_s": with_base(duration_s=20.0),
    # an entry printed as an earlier one in the rows repeats that cell's
    # runs, and its summary would count each seed once per repeat
    "node_counts[1]": dict(SWEEP_SPEC, node_counts=[5, 5]),
    "rx_ratios[1]": dict(SWEEP_SPEC, rx_ratios=[1, 1.0]),
    "rx_ratios[2]": dict(SWEEP_SPEC, rx_ratios=[1.0, 0.8, 0.8000001]),
    "topologies[1]": dict(SWEEP_SPEC, topologies=["grid", "grid"]),
    "objectives[2]": dict(SWEEP_SPEC, objectives=["of0", "etx", "of0"]),
}


def schema_nodes(spec, path=()):
    """Every (path, sub-schema) pair of a schema; a path item is a property
    name, or 0 for the first item of an array."""
    yield path, spec
    for key, sub in spec.get("properties", {}).items():
        yield from schema_nodes(sub, path + (key,))
    if "items" in spec:
        yield from schema_nodes(spec["items"], path + (0,))


def past_bounds(spec):
    """The first value past each bound a sub-schema sets."""
    integer = spec.get("type") == "integer"
    if "minimum" in spec:
        yield (spec["minimum"] - 1 if integer
               else math.nextafter(spec["minimum"], -math.inf))
    if "maximum" in spec:
        yield (spec["maximum"] + 1 if integer
               else math.nextafter(spec["maximum"], math.inf))
    if "exclusiveMinimum" in spec:
        yield spec["exclusiveMinimum"]
    if "minItems" in spec:
        yield [None] * (spec["minItems"] - 1)


def bound_count(schema):
    """How many bounds a schema's JSON text sets."""
    text = json.dumps(schema)
    return sum(text.count(f'"{key}"') for key in (
        "minimum", "maximum", "exclusiveMinimum", "minItems"))


SECTIONS = {"medium": MediumConfig, "protocol": ProtocolConfig,
            "currents": EnergyCurrents}


def build_in_python(document):
    """A scenario document's config built without the loader: each object
    section becomes its dataclass, any other value is passed as it is, and
    nothing is validated first."""
    return ScenarioConfig(**{
        key: SECTIONS[key](**value)
        if key in SECTIONS and isinstance(value, dict) else value
        for key, value in document.items()})


def build_outcome(build, document):
    """The config a build returns, or the text of its ConfigError."""
    try:
        return build(document)
    except ConfigError as exc:
        return str(exc)


def cli_refusal(command, document):
    """What `rplsim run` (command "run") or `rplsim sweep` prints to stderr
    for a document it refuses: it must exit 2 and write no file beside the
    document, no --out, --trace, .summary.csv or .failures.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(pathlib.Path(tmp, "doc.json"), document)
        flags = {"run": ["--config", path, "--trace",
                         os.path.join(tmp, "t.jsonl")],
                 "sweep": ["--spec", path]}[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, *flags, "--out", os.path.join(tmp, "o.csv")])
        assert (code, os.listdir(tmp)) == (2, ["doc.json"]), err.getvalue()
    return err.getvalue()


def refusal(document):
    """The one ConfigError text a scenario document gets however it is
    built: by the loader, in Python, and by `rplsim run`, which prints it
    as `config error: <text>`.  The Python build is skipped only for an
    unknown or missing field, which the dataclass refuses with a TypeError
    of its own."""
    text = build_outcome(scenario_from_dict, document)
    assert isinstance(text, str), f"accepted: {document}"
    if not text.endswith(("unknown field", "required field is missing")):
        assert build_outcome(build_in_python, document) == text
    assert cli_refusal("run", document) == f"config error: {text}\n"
    return text


# one value of each JSON type, NaN and an infinity: for any schema node
# some are of the wrong type
ANY_TYPE = [None, True, "x", [], {}, 3, 0.5, math.nan, -math.inf]


def schema_values(spec):
    """Values for one schema node: mostly in range, else the first value
    past one of its bounds or a value of another JSON type.  One value in
    eight is out of range, so a document holds none, one or a few."""
    if "properties" in spec:
        fit = schema_documents(spec)
    elif "enum" in spec:
        fit = st.sampled_from(spec["enum"])
    elif spec["type"] == "integer":
        low = spec.get("minimum")
        if "exclusiveMinimum" in spec:
            low = spec["exclusiveMinimum"] + 1
        fit = st.integers(low, spec.get("maximum"))
    elif spec["type"] == "number":
        fit = st.floats(spec.get("minimum", spec.get("exclusiveMinimum")),
                        spec.get("maximum"), allow_nan=False,
                        allow_infinity=False,
                        exclude_min="exclusiveMinimum" in spec)
    elif spec["type"] == "array":
        fit = st.lists(schema_values(spec["items"]), max_size=3)
    else:
        fit = st.text(max_size=6)
    spoilt = st.sampled_from([*past_bounds(spec), *ANY_TYPE])
    return st.sampled_from(range(8)).flatmap(lambda i: fit if i else spoilt)


def schema_documents(spec):
    """Objects with every required property of a schema node and any of
    the others."""
    values = {key: schema_values(sub)
              for key, sub in spec["properties"].items()}
    required = spec.get("required", ())
    return st.fixed_dictionaries(
        {key: values[key] for key in required},
        optional={key: v for key, v in values.items() if key not in required})


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# the sweep cell whose pool worker dies; the worker is module level so that
# the pool pickles it by name, and a forked worker sees this cell
DOOMED_CELL = None
run_cell = cli._sweep_worker


def dying_worker(cfg):
    if cfg == DOOMED_CELL:
        os._exit(1)
    return run_cell(cfg)


def freeze_count_worker(cfg):
    """Report the pool worker's gc freeze count as the cell's error."""
    return None, f"freeze count {gc.get_freeze_count()}"


# run in a fresh interpreter: a single run and a serial sweep, then the
# pool's modules that the interpreter loaded (none, since only a parallel
# sweep needs a process pool)
POOL_FREE_CHILD = """
import sys
from rplsim.cli import main
config, spec, out = sys.argv[1:]
assert main(["run", "--config", config, "--out", out + ".run.csv"]) == 0
assert main(["sweep", "--spec", spec, "--out", out]) == 0
print("pool modules:", [name for name in ("multiprocessing",
                                          "concurrent.futures")
                        if name in sys.modules])
"""


@pytest.fixture(scope="module")
def fresh_serial_sweep(tmp_path_factory):
    """POOL_FREE_CHILD's last line and the CSV of its grid-order sweep of
    SWEEP_SPEC, run in a fresh interpreter with src on PYTHONPATH: the one
    serial sweep of SWEEP_SPEC, whose rows and summary the tests share."""
    tmp = tmp_path_factory.mktemp("fresh")
    out = tmp / "o.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", POOL_FREE_CHILD,
         write_json(tmp / "c.json", GOOD_CONFIG),
         write_json(tmp / "s.json", SWEEP_SPEC), str(out)],
        env=env, capture_output=True, text=True, check=True)
    return child.stdout.splitlines()[-1], out


ROW_WITHOUT_PARSER = """
import sys
from rplsim.cli import result_to_row
from rplsim.scenario import ScenarioConfig
from rplsim.simulate import run_scenario
row = result_to_row(run_scenario(ScenarioConfig(
    node_count=5, topology="grid", objective="of0", rx_success_ratio=0.95,
    duration_s=60.0, warmup_s=10.0)))
print(row["rx_ratio"])
print(sorted({"argparse", "gettext"} & set(sys.modules)))
"""


def never_run(*args, **kwargs):
    raise AssertionError("a run started despite a bad path")


def unopenable(tmp_path):
    """A file path whose directory does not exist."""
    return str(tmp_path / "missing" / "file")


class TestRun:
    def test_successful_run_appends_one_row(self, tmp_path, capsys):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out = str(tmp_path / "out.csv")
        assert main(["run", "--config", config, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert list(rows[0]) == CSV_COLUMNS
        assert rows[0]["scenario_id"] == "grid9_of0_rx100"
        assert rows[0]["pdr_total"] != ""

    def test_repeat_invocations_write_identical_rows(self, tmp_path):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        written = []
        for name in ("a", "b"):
            out, trace = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
            assert main(["run", "--config", config, "--out", str(out),
                         "--trace", str(trace)]) == 0
            written.append((out.read_bytes(), trace.read_bytes()))
        (csv_a, trace_a), (csv_b, trace_b) = written
        assert csv_a == csv_b
        assert trace_a and trace_a == trace_b

    def test_seed_override_lands_in_row(self, tmp_path):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out = str(tmp_path / "out.csv")
        assert main(["run", "--config", config, "--seed", "42",
                     "--out", out]) == 0
        assert read_rows(out)[0]["seed"] == "42"

    def test_layout_that_cannot_connect_writes_no_file(self):
        document = {"node_count": 50, "topology": "random", "objective": "of0",
                    "rx_success_ratio": 1.0, "area_side_m": 100000.0}
        assert cli_refusal("run", document).startswith(
            "config error: topology: ")

    @pytest.mark.parametrize("case", REFUSED)
    def test_rejected_config_exits_2_naming_field(self, case):
        prefix, overrides = REFUSED[case]
        # a dict literal keeps each key where it first comes
        document = {**overrides, **GOOD_CONFIG, **overrides}
        assert refusal(document).startswith(prefix)

    def test_missing_required_field(self):
        # the one refusal a table of overrides cannot state: a removed key
        document = dict(GOOD_CONFIG)
        del document["objective"]
        assert refusal(document) == "objective: required field is missing"

    def test_foreign_csv_header_exits_2_and_keeps_file(self, tmp_path,
                                                       capsys):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out = tmp_path / "o.csv"
        out.write_text("scenario_id,pdr\nx,1.0\n", encoding="utf-8")
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "header" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "scenario_id,pdr\nx,1.0\n"

    def test_appends_under_a_matching_header(self, tmp_path):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out = str(tmp_path / "o.csv")
        assert main(["run", "--config", config, "--out", out]) == 0
        assert main(["run", "--config", config, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_trace_naming_the_out_file_exits_2_and_keeps_it(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out, before = tmp_path / "o.csv", ",".join(CSV_COLUMNS) + "\nrow\n"
        out.write_text(before, encoding="utf-8")
        assert main(["run", "--config", config, "--out", str(out),
                     "--trace", f"{tmp_path}/./o.csv"]) == 2
        assert "--trace" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == before

    def test_trace_hard_linked_to_the_out_file_exits_2_and_keeps_it(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out, before = tmp_path / "r.csv", ",".join(CSV_COLUMNS) + "\nrow\n"
        out.write_text(before, encoding="utf-8")
        os.link(out, tmp_path / "h.csv")
        assert main(["run", "--config", config, "--out", str(out),
                     "--trace", str(tmp_path / "h.csv")]) == 2
        assert capsys.readouterr().err == (
            "config error: --trace: is a hard link to the --out file; "
            "give it another\n")
        assert out.read_text(encoding="utf-8") == before

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "o.csv")]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unopenable_path_exits_2_before_running(self, tmp_path, capsys,
                                                    monkeypatch, flag):
        monkeypatch.setattr(cli, "run_scenario", never_run)
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out, bad = tmp_path / "o.csv", unopenable(tmp_path)
        paths = {"--out": ["--out", bad],
                 "--trace": ["--out", str(out), "--trace", bad]}[flag]
        assert main(["run", "--config", config, *paths]) == 2
        assert bad in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_product_count(self, fresh_serial_sweep):
        rows = read_rows(fresh_serial_sweep[1])
        assert len(rows) == 2 * 2 * 1 * 1 * 3
        seeds = {row["seed"] for row in rows}
        assert seeds == {"1", "2", "3"}

    def test_parallel_matches_serial(self, tmp_path, fresh_serial_sweep):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        out_parallel = tmp_path / "parallel.csv"
        assert main(["sweep", "--spec", spec, "--parallel", "4",
                     "--out", str(out_parallel)]) == 0
        assert fresh_serial_sweep[1].read_bytes() == out_parallel.read_bytes()

    def test_rows_do_not_depend_on_run_order(self, fresh_serial_sweep):
        rows = read_rows(fresh_serial_sweep[1])
        configs = [scenario_from_dict(raw) for raw in sweep_tasks(SWEEP_SPEC)]
        order = list(range(len(configs)))
        random.Random(1).shuffle(order)
        assert order != sorted(order)
        for index in order:
            assert cli._sweep_worker(configs[index]) == (rows[index], None)

    def test_run_and_serial_sweep_never_load_the_pool(self,
                                                      fresh_serial_sweep):
        assert fresh_serial_sweep[0] == "pool modules: []"

    def test_summary_mean_matches_rows(self, fresh_serial_sweep):
        out = fresh_serial_sweep[1]
        rows = read_rows(out)
        summary = read_rows(f"{out}.summary.csv")
        cell = summary[0]
        members = [float(r["pdr_total"]) for r in rows
                   if (r["topology"], r["rx_ratio"], r["objective"],
                       r["node_count"]) == (cell["topology"], cell["rx_ratio"],
                                            cell["objective"],
                                            cell["node_count"])]
        assert float(cell["pdr_mean"]) == pytest.approx(
            statistics.mean(members), abs=1e-6)
        assert cell["runs"] == str(len(members))

    @pytest.mark.parametrize("done", [0, 5])
    def test_interrupted_sweep_keeps_finished_rows(
            self, tmp_path, monkeypatch, fresh_serial_sweep, done):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        full = fresh_serial_sweep[1]
        worker = cli._sweep_worker
        calls = []

        def interrupted(cfg):
            if len(calls) == done:
                raise KeyboardInterrupt
            calls.append(cfg)
            return worker(cfg)
        monkeypatch.setattr(cli, "_sweep_worker", interrupted)
        out = tmp_path / "cut.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--spec", spec, "--out", str(out)])
        lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
        assert out.read_text(encoding="utf-8") == "".join(lines[:1 + done])

    @pytest.mark.parametrize("doomed", [0, 7])
    def test_dead_worker_loses_only_the_cells_of_its_pool(
            self, tmp_path, monkeypatch, capsys, fresh_serial_sweep, doomed):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        full = fresh_serial_sweep[1]
        configs = [scenario_from_dict(raw)
                   for raw in sweep_tasks(load_sweep(spec))]
        monkeypatch.setitem(globals(), "DOOMED_CELL", configs[doomed])
        monkeypatch.setattr(cli, "_sweep_worker", dying_worker)
        out = tmp_path / "cut.csv"
        assert main(["sweep", "--spec", spec, "--parallel", "2",
                     "--out", str(out)]) == 1
        failures = read_rows(str(out) + ".failures.csv")
        lost = [int(f["task_index"]) for f in failures]
        assert doomed in lost and lost == sorted(lost)
        assert all(f["error"].startswith("BrokenProcessPool")
                   for f in failures)
        # every other cell kept its row, in grid order
        lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
        assert out.read_text(encoding="utf-8") == "".join(
            [lines[0]] + [line for index, line in enumerate(lines[1:])
                          if index not in lost])
        assert (tmp_path / "cut.csv.summary.csv").exists()

    def test_pool_workers_freeze_the_heap_they_fork_with(self, tmp_path,
                                                         monkeypatch):
        # conftest.py froze this session's heap; thawed, a worker's heap is
        # frozen only if the worker froze what it forked with
        spec = write_json(tmp_path / "s.json",
                          dict(SWEEP_SPEC, seeds_per_cell=1))
        monkeypatch.setattr(cli, "_sweep_worker", freeze_count_worker)
        out = tmp_path / "frozen.csv"
        gc.unfreeze()
        try:
            assert main(["sweep", "--spec", spec, "--parallel", "2",
                         "--out", str(out)]) == 1
        finally:
            gc.freeze()
        counts = [int(f["error"].removeprefix("freeze count "))
                  for f in read_rows(str(out) + ".failures.csv")]
        assert len(counts) == 4 and min(counts) > 0

    def test_failed_cell_is_recorded_and_sweep_continues(self, tmp_path,
                                                         capsys):
        spec = dict(SWEEP_SPEC, node_counts=[5], rx_ratios=[1.0],
                    seeds_per_cell=1,
                    base=dict(SWEEP_SPEC["base"], area_side_m=50_000.0))
        spec["topologies"] = ["random", "grid"]
        path = write_json(tmp_path / "s.json", spec)
        out = str(tmp_path / "runs.csv")
        code = main(["sweep", "--spec", path, "--out", out])
        assert code == 1
        rows = read_rows(out)
        assert all(row["topology"] == "grid" for row in rows)
        failures = read_rows(out + ".failures.csv")
        assert len(failures) == 2
        assert all("density" in f["error"] for f in failures)

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exits_2(self, tmp_path, capsys, monkeypatch,
                                        parallel):
        monkeypatch.setattr(cli, "run_scenario", never_run)
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spec", spec, "--parallel", parallel,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--parallel" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_has_no_more_workers_than_cells(self, tmp_path,
                                                 monkeypatch):
        pool = concurrent.futures.ProcessPoolExecutor
        spec = dict(SWEEP_SPEC, node_counts=[5], objectives=["of0"],
                    seeds_per_cell=2)
        cells = len(sweep_tasks(spec))
        pools = []

        def checked(max_workers, **kwargs):
            assert max_workers <= cells
            pools.append(max_workers)
            return pool(max_workers=max_workers, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", checked)
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--spec", write_json(tmp_path / "s.json", spec),
                     "--parallel", "64", "--out", out]) == 0
        assert len(read_rows(out)) == cells == 2 and pools == [2]

    @pytest.mark.parametrize("field", BAD_SWEEPS)
    def test_bad_field_exits_2_before_running(self, field, tmp_path):
        text = cli_refusal("sweep", BAD_SWEEPS[field])
        assert text.startswith(f"config error: {field}: ")
        path = write_json(tmp_path / "s.json", BAD_SWEEPS[field])
        if field.startswith("sweep cell "):
            load_sweep(path)
        else:
            with pytest.raises(ConfigError) as refused:
                load_sweep(path)
            assert text == f"config error: {refused.value}\n"

    def test_unopenable_out_exits_2_before_running(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(cli, "_sweep_worker", never_run)
        path = write_json(tmp_path / "s.json", SWEEP_SPEC)
        bad = unopenable(tmp_path)
        assert main(["sweep", "--spec", path, "--out", bad]) == 2
        assert bad in capsys.readouterr().err

    def test_foreign_csv_header_exits_2_before_running(self, tmp_path,
                                                       capsys):
        path = write_json(tmp_path / "s.json", SWEEP_SPEC)
        out = tmp_path / "runs.csv"
        out.write_text("a,b\n", encoding="utf-8")
        assert main(["sweep", "--spec", path, "--out", str(out)]) == 2
        assert "header" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "a,b\n"
        assert not (tmp_path / "runs.csv.summary.csv").exists()


# a session with one failing hypothesis test and one passing test
HYPOTHESIS_FAILURE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


class TestShippedArtifacts:
    def test_package_imports_only_itself_and_the_stdlib(self):
        # the runtime declares no dependencies, so nothing else may be needed
        foreign = []
        for path in sorted((ROOT / "src" / "rplsim").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign += [f"{path.name}: {name}" for name in names
                            if name.split(".")[0] != "rplsim" and
                            name.split(".")[0] not in sys.stdlib_module_names]
        assert not foreign

    def test_every_imported_name_is_used(self):
        # no linter runs here, and a deletion can leave an import behind;
        # rplsim/__init__.py's imports are the package's re-exports
        unused = []
        for path in sorted([*(ROOT / "src" / "rplsim").rglob("*.py"),
                            *(ROOT / "tests").glob("*.py")]):
            if path == ROOT / "src" / "rplsim" / "__init__.py":
                continue
            tree = ast.parse(path.read_text("utf-8"))
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            unused += [f"{path.name}: {name}" for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       and getattr(node, "module", None) != "__future__"
                       for alias in node.names
                       if (name := (alias.asname or alias.name)
                           .split(".")[0]) not in used]
        assert not unused

    def test_every_definition_is_used(self):
        # each function, class, method and module constant in src/rplsim is
        # read somewhere outside its own definition, in src/, tests/ or
        # perfbench/; perfbench/hooks.py names its targets in strings such
        # as "Simulator.schedule", so each dotted part of a string counts
        used = {}
        for path in [*(ROOT / "src").rglob("*.py"),
                     *(ROOT / "tests").glob("*.py"),
                     *(ROOT / "perfbench").glob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value,
                                                                 str):
                    names = node.value.split(".")
                elif isinstance(getattr(node, "ctx", None), ast.Load):
                    names = [getattr(node, "id", getattr(node, "attr", None))]
                else:
                    continue
                for name in names:
                    used.setdefault(name, []).append((path, node.lineno))
        unused = []
        for path in sorted((ROOT / "src" / "rplsim").rglob("*.py")):
            defined = []
            for node in ast.parse(path.read_text("utf-8")).body:
                if isinstance(node, ast.ClassDef):
                    defined += [(method.name, method) for method in node.body
                                if isinstance(method, ast.FunctionDef)]
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((node.name, node))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    defined += [(name.id, node) for name in ast.walk(node)
                                if isinstance(name, ast.Name)
                                and isinstance(name.ctx, ast.Store)]
            unused += [f"{path.name}: {name}" for name, node in defined
                       if not (name.startswith("__") and name.endswith("__"))
                       and all(at == path and node.lineno <= line
                               <= node.end_lineno
                               for at, line in used.get(name, []))]
        assert not unused

    def test_module_entry_point_exits_0(self):
        # python -m rplsim.cli reaches main through cli.py's own sys.exit;
        # -m puts the working directory, src/, on the child's path
        child = subprocess.run(
            [sys.executable, "-m", "rplsim.cli", "--help"],
            cwd=ROOT / "src", capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith("usage: rplsim ")

    def test_a_row_is_built_without_argparse(self):
        # importers of result_to_row, such as single-run benchmarks and
        # notebooks, load no argparse and no gettext with it
        child = subprocess.run(
            [sys.executable, "-c", ROW_WITHOUT_PARSER], cwd=ROOT / "src",
            capture_output=True, text=True, check=True)
        assert child.stdout.splitlines() == ["0.95", "[]"]

    def test_a_failing_hypothesis_test_is_reported(self, tmp_path):
        # hypothesis reports a failing example through libcst, whose import
        # warns; under this project's pytest settings the session must still
        # report that failure and run the next test (exit 1), not abort (3)
        (tmp_path / "test_generated.py").write_text(HYPOTHESIS_FAILURE)
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
             "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
             "test_generated.py"],
            cwd=tmp_path, capture_output=True, text=True)
        assert child.returncode == 1, child.stdout[-2000:]
        assert "1 failed, 1 passed" in child.stdout

    def test_refusals_are_stated_in_one_module(self):
        # a load-time refusal is a REFUSED or BAD_SWEEPS entry or a value of
        # the bound walk, all in this module; elsewhere only these older
        # named tests, which keep their ids, call refusal or cli_refusal
        kept = ["test_scenario.py: test_bad_traffic_class",
                "test_scenario.py: "
                "test_config_built_in_python_meets_the_schema",
                "test_scenario.py: "
                "test_control_timers_no_faster_than_the_radio_sends"]
        elsewhere = []
        for path in sorted((ROOT / "tests").glob("*.py")):
            if path.name == "test_cli.py":
                continue
            for func in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(func, ast.FunctionDef) and any(
                        getattr(node, "id", getattr(node, "attr", None))
                        in ("refusal", "cli_refusal")
                        for node in ast.walk(func)):
                    elsewhere.append(f"{path.name}: {func.name}")
        assert elsewhere == kept

    def test_shipped_run_configs_keep_their_ids(self):
        # each file is a paper-grid task, whose row PAPER_GRID_SHA256 in
        # test_acceptance.py pins, and the id it once set by hand is derived
        tasks = [scenario_from_dict(raw) for raw in sweep_tasks(
            load_sweep(str(ROOT / "configs" / "paper_sweep.json")))]
        for name, scenario_id in (("grid20_of0", "grid20_of0_rx100"),
                                  ("random40_etx_rx80", "random40_etx_rx80")):
            cfg = load_scenario(str(ROOT / "configs" / f"{name}.json"))
            assert cfg in tasks
            assert cfg.scenario_id == scenario_id

    def test_schema_documents_are_valid_json(self):
        for name in ("scenario", "sweep"):
            text = (SCHEMA_DIR / f"{name}.schema.json").read_text("utf-8")
            payload = json.loads(text)
            assert payload["$schema"].startswith("https://json-schema.org/")
            assert payload == load_schema(name)
            # validate() must interpret every keyword; none may be ignored
            for where, spec in schema_nodes(payload):
                unknown = set(spec) - SCHEMA_KEYWORDS - {"$schema", "$id",
                                                         "title"}
                assert not unknown, f"{name} {where}: {unknown}"
                assert spec.get("additionalProperties", False) is False

    def test_schema_properties_match_config_fields(self):
        # a dataclass field missing from the schema cannot be set, and a
        # schema property missing from the dataclass crashes its constructor
        schema = load_schema("scenario")
        pairs = [(schema, ScenarioConfig)] + [
            (schema["properties"][name], cls) for name, cls in SECTIONS.items()]
        for spec, cls in pairs:
            fields = {f.name for f in dataclasses.fields(cls)}
            assert set(spec["properties"]) == fields, cls.__name__

    @pytest.mark.parametrize("name", ["scenario", "sweep"])
    def test_schema_bounds_reject_first_value_past_them(self, name):
        # a sweep meets the schema load_sweep applies: its own file's with
        # every scenario bound under base and each grid list's items
        good = {"scenario": GOOD_CONFIG, "sweep": SWEEP_SPEC}[name]
        schema = {"scenario": load_schema("scenario"),
                  "sweep": sweep_schema()}[name]
        checked = 0
        for where, spec in schema_nodes(schema):
            field = "".join(f".{p}" if isinstance(p, str) else f"[{p}]"
                            for p in where).lstrip(".")
            for value in past_bounds(spec):
                bad = copy.deepcopy(good)
                target = bad
                for part in where[:-1]:
                    target = target.setdefault(part, {})
                target[where[-1]] = value
                text = (refusal(bad) if name == "scenario" else
                        cli_refusal("sweep", bad).removeprefix(
                            "config error: "))
                assert text.startswith(f"{field}: "), value
                checked += 1
        # the walk reached every bound the schema's text sets, and as many
        # as README counts, so a bound taken out of the schema fails here
        assert checked == bound_count(schema) \
            == {"scenario": 51, "sweep": 56}[name]
        if name == "sweep":     # each scenario bound, in base or a grid list
            assert checked == (bound_count(load_schema("scenario"))
                               + bound_count(load_schema("sweep")))

    @settings(max_examples=200)
    @given(schema_documents(load_schema("scenario")))
    def test_loaded_and_python_built_configs_agree(self, document):
        # both refuse a document with the same text, or build equal configs
        assert build_outcome(scenario_from_dict, document) \
            == build_outcome(build_in_python, document)

    def test_bundled_configs_validate(self):
        configs = sorted((ROOT / "configs").glob("*.json"))
        assert configs
        for path in configs:
            if "node_counts" not in json.loads(path.read_text()):
                load_scenario(str(path))
                continue
            spec = load_sweep(str(path))
            assert spec["seeds_per_cell"] >= 3
            for raw in sweep_tasks(spec):
                scenario_from_dict(raw)

    def test_paper_sweep_covers_the_comparison_grid(self):
        spec = load_sweep(str(ROOT / "configs" / "paper_sweep.json"))
        assert spec["node_counts"] == [20, 40, 60, 80, 100]
        assert sorted(spec["objectives"]) == ["etx", "of0"]
        assert sorted(spec["rx_ratios"]) == [0.8, 1.0]
        assert sorted(spec["topologies"]) == ["grid", "random"]
        assert len(sweep_tasks(spec)) == 5 * 2 * 2 * 2 * 3


class TestPlotData:
    def test_reshape_pdr(self, tmp_path, fresh_serial_sweep):
        out = str(tmp_path / "pdr.csv")
        assert main(["plot-data", "--in", str(fresh_serial_sweep[1]),
                     "--figure", "pdr", "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 4            # 2 node counts x 2 objectives
        assert {row["figure"] for row in rows} == {"pdr"}
        for row in rows:
            assert 0.0 <= float(row["mean"]) <= 1.0
            assert row["runs"] == "3"

    def test_reshape_power(self, tmp_path, fresh_serial_sweep):
        out = str(tmp_path / "power.csv")
        assert main(["plot-data", "--in", str(fresh_serial_sweep[1]),
                     "--figure", "power", "--out", out]) == 0
        rows = read_rows(out)
        assert all(float(row["mean"]) > 0 for row in rows)

    @pytest.mark.parametrize("flag", ["--in", "--out"])
    def test_unopenable_path_exits_2(self, tmp_path, capsys, flag):
        runs = tmp_path / "runs.csv"
        runs.write_text(",".join(CSV_COLUMNS) + "\n", encoding="utf-8")
        bad = unopenable(tmp_path)
        paths = {"--in": [bad, str(tmp_path / "pdr.csv")],
                 "--out": [str(runs), bad]}[flag]
        assert main(["plot-data", "--in", paths[0], "--figure", "pdr",
                     "--out", paths[1]]) == 2
        assert bad in capsys.readouterr().err

    def test_csv_without_result_columns_exits_2(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("a,b\n1,2\n", encoding="utf-8")
        out = tmp_path / "pdr.csv"
        assert main(["plot-data", "--in", str(runs), "--figure", "pdr",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(runs) in err and "topology" in err
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [("node_count", "x"),
                                               ("pdr_total", "abc"),
                                               ("pdr_total", "inf"),
                                               ("pdr_total", "nan")])
    def test_non_numeric_cell_exits_2_before_out(self, tmp_path, capsys,
                                                 column, value):
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(topology="grid", rx_ratio="1", objective="of0",
                   node_count="9", pdr_total="0.5")
        row[column] = value
        runs = tmp_path / "runs.csv"
        runs.write_text(",".join(CSV_COLUMNS) + "\n"
                        + ",".join(row.values()) + "\n", encoding="utf-8")
        out = tmp_path / "pdr.csv"
        assert main(["plot-data", "--in", str(runs), "--figure", "pdr",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(runs) in err and column in err and repr(value) in err
        assert not out.exists()
