"""CLI surface: run/sweep/plot-data, schema errors, parallel equivalence."""

import ast
import concurrent.futures
import copy
import csv
import dataclasses
import json
import math
import os
import pathlib
import random
import statistics
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rplsim import cli
from rplsim.cli import CSV_COLUMNS, load_sweep, main, sweep_tasks
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


# configs that must fail at load time, keyed by the field the error must
# name; each would otherwise hang, crash mid-run or run on a wrong value
REJECTED = {
    "dis_period_s": {"protocol": {"dis_period_s": 0}},
    "housekeeping_period_s": {"protocol": {"housekeeping_period_s": 0}},
    "trickle_i_min_s": {"protocol": {"trickle_i_min_s": 1e-7}},
    "trickle_doublings": {"protocol": {"trickle_doublings": 1.5}},
    # an 8-bit field in RFC 6550's DIO
    "protocol.trickle_doublings": {"protocol": {"trickle_doublings": 256}},
    "voltage_v": {"currents": {"voltage_v": -3}},
    "tx_ma": {"currents": {"tx_ma": -1.0}},
    "rx_success_ratio": {"rx_success_ratio": True},
    "seed": {"seed": True},
    "medium.rx_success_ratio": {"medium": {"rx_success_ratio": 0.1}},
    "medium.data_payload_bytes: unknown field": {
        "medium": {"data_payload_bytes": 30}},
    "medium.data_header_bytes: unknown field": {
        "medium": {"data_header_bytes": 20}},
    "protocol.etx_initial: unknown field": {"protocol": {"etx_initial": 256}},
    "medium.data_frame_bytes: must be >= 1": {
        "medium": {"data_frame_bytes": 0}},
    "protocol.cpu_process_s": {"protocol": {"cpu_process_s": -0.001}},
    "medium.ack_turnaround_s": {"medium": {"ack_turnaround_s": -0.0001}},
    # 20 + 352 us is the 372 us timeout once rounded: each ACK would land on
    # its timeout's microsecond, where the timeout wins, and every unicast fail
    "medium.ack_timeout_s": {"medium": {"ack_turnaround_s": 0.0000196,
                                        "ack_timeout_s": 0.0003717}},
    "traffic_classes": {"traffic_classes": [["critical"]]},
    "protocol.ttl": {"protocol": {"ttl": 0}},
    "duration_s": {"duration_s": math.inf},
    # rounds to a zero-length run, whose average power is undefined
    "duration_s: must exceed warmup_s": {"warmup_s": 0, "duration_s": 1e-7},
    # rounds to a 1 us window: every backoff draws 0 and time stops
    "medium.backoff_window_s": {"medium": {"backoff_window_s": 0.000001}},
    # control frames would queue faster than the radio sends them, and the
    # run grows until it is killed
    "protocol.trickle_i_min_s": {"protocol": {"trickle_i_min_s": 0.00001,
                                              "trickle_doublings": 0}},
    "protocol.dis_period_s": {"protocol": {"dis_period_s": 0.001}},
    # an expiry or an airtime past a float's range crashes the run or the
    # config's own checks with an OverflowError
    "protocol.parent_expiry_trickle_factor": {
        "protocol": {"parent_expiry_trickle_factor": 1e308}},
    "medium.ack_frame_bytes: must be <=": {
        "medium": {"ack_frame_bytes": 10**400}},
    # past about 2.3e299 s, a candidate's expiry (the factor times the
    # longest trickle interval) overflows a float and crashes the run
    "protocol.trickle_i_min_s: must be <=": {
        "protocol": {"trickle_i_min_s": 1e302}},
    # the run's power and energy come out infinite
    "currents.voltage_v: must be <=": {"currents": {"voltage_v": 1e308}},
    # the id follows from topology, node_count, objective and ratio
    "scenario_id: unknown field": {"scenario_id": "x"},
}

# sweeps whose bad field must stop the sweep before its first run
BAD_SWEEPS = {
    "bogus": dict(SWEEP_SPEC, base=dict(SWEEP_SPEC["base"], bogus=1)),
    "rx_ratios[0]": dict(SWEEP_SPEC, rx_ratios=[True]),
    # the grid sets these on every task, so a base value would be dropped
    **{f"base.{key}": dict(SWEEP_SPEC, base=dict(SWEEP_SPEC["base"],
                                                  **{key: value}))
       for key, value in (("topology", "random"), ("objective", "etx"),
                          ("rx_success_ratio", 0.5), ("node_count", 50),
                          ("seed", 7))},
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
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["run", "--config", config, "--out", out_a]) == 0
        assert main(["run", "--config", config, "--out", out_b]) == 0
        assert pathlib.Path(out_a).read_bytes() \
            == pathlib.Path(out_b).read_bytes()

    def test_trace_files_are_byte_identical(self, tmp_path):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        t_a, t_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        main(["run", "--config", config, "--out", str(tmp_path / "x.csv"),
              "--trace", t_a])
        main(["run", "--config", config, "--out", str(tmp_path / "y.csv"),
              "--trace", t_b])
        a, b = pathlib.Path(t_a).read_bytes(), pathlib.Path(t_b).read_bytes()
        assert a and a == b

    def test_seed_override_lands_in_row(self, tmp_path):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        out = str(tmp_path / "out.csv")
        main(["run", "--config", config, "--seed", "42", "--out", out])
        assert read_rows(out)[0]["seed"] == "42"

    def test_bad_rx_ratio_exits_2_naming_field(self, tmp_path, capsys):
        bad = dict(GOOD_CONFIG, rx_success_ratio=1.3)
        config = write_json(tmp_path / "c.json", bad)
        code = main(["run", "--config", config, "--out",
                     str(tmp_path / "o.csv")])
        assert code == 2
        assert "rx_success_ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("field", REJECTED)
    def test_rejected_config_exits_2_naming_field(self, tmp_path, capsys,
                                                  field):
        config = write_json(tmp_path / "c.json",
                            dict(GOOD_CONFIG, **REJECTED[field]))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

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
        main(["sweep", "--spec", spec, "--parallel", "4",
              "--out", str(out_parallel)])
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

        def checked(max_workers):
            assert max_workers <= cells
            pools.append(max_workers)
            return pool(max_workers=max_workers)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", checked)
        out = str(tmp_path / "o.csv")
        assert main(["sweep", "--spec", write_json(tmp_path / "s.json", spec),
                     "--parallel", "64", "--out", out]) == 0
        assert len(read_rows(out)) == cells == 2 and pools == [2]

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {"node_counts": []})
        assert main(["sweep", "--spec", path,
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_boolean_seeds_per_cell_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json",
                          dict(SWEEP_SPEC, seeds_per_cell=True))
        assert main(["sweep", "--spec", path,
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "seeds_per_cell" in capsys.readouterr().err

    @pytest.mark.parametrize("field", BAD_SWEEPS)
    def test_bad_field_exits_2_before_running(self, tmp_path, capsys, field):
        path = write_json(tmp_path / "s.json", BAD_SWEEPS[field])
        out = tmp_path / "runs.csv"
        assert main(["sweep", "--spec", path, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "runs.csv.failures.csv").exists()

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

    def test_shipped_run_configs_keep_their_ids(self, tmp_path):
        # the ids these files once set by hand are the derived ones
        out = str(tmp_path / "out.csv")
        for name in ("grid20_of0", "random40_etx_rx80"):
            config = str(ROOT / "configs" / f"{name}.json")
            assert main(["run", "--config", config, "--out", out]) == 0
        assert [row["scenario_id"] for row in read_rows(out)] \
            == ["grid20_of0_rx100", "random40_etx_rx80"]

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
    def test_schema_bounds_reject_first_value_past_them(self, tmp_path, name):
        good = {"scenario": GOOD_CONFIG, "sweep": SWEEP_SPEC}[name]
        checked = 0
        for where, spec in schema_nodes(load_schema(name)):
            field = "".join(f".{p}" if isinstance(p, str) else f"[{p}]"
                            for p in where).lstrip(".")
            for value in past_bounds(spec):
                bad = copy.deepcopy(good)
                target = bad
                for part in where[:-1]:
                    target = target.setdefault(part, {})
                target[where[-1]] = value
                # a scenario gets the same rules however it is built
                builds = ([scenario_from_dict, build_in_python]
                          if name == "scenario" else
                          [lambda bad: load_sweep(
                              write_json(tmp_path / "s.json", bad))])
                for build in builds:
                    with pytest.raises(ConfigError) as err:
                        build(bad)
                    assert str(err.value).startswith(f"{field}: "), value
                checked += 1
        # the walk reached every bound the schema's text sets
        text = (SCHEMA_DIR / f"{name}.schema.json").read_text("utf-8")
        assert checked == sum(text.count(f'"{key}"') for key in (
            "minimum", "maximum", "exclusiveMinimum", "minItems"))

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
        main(["plot-data", "--in", str(fresh_serial_sweep[1]), "--figure",
              "power", "--out", out])
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
