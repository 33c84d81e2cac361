"""CLI surface: run/sweep/plot-data, schema errors, parallel equivalence."""

import csv
import json
import statistics

import pytest

from rplsim.cli import CSV_COLUMNS, main

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
    "voltage_v": {"currents": {"voltage_v": -3}},
    "tx_ma": {"currents": {"tx_ma": -1.0}},
    "rx_success_ratio": {"rx_success_ratio": True},
    "seed": {"seed": True},
    "medium.rx_success_ratio": {"medium": {"rx_success_ratio": 0.1}},
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_trace_files_are_byte_identical(self, tmp_path):
        config = write_json(tmp_path / "c.json", GOOD_CONFIG)
        t_a, t_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        main(["run", "--config", config, "--out", str(tmp_path / "x.csv"),
              "--trace", t_a])
        main(["run", "--config", config, "--out", str(tmp_path / "y.csv"),
              "--trace", t_b])
        a, b = open(t_a, "rb").read(), open(t_b, "rb").read()
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


class TestSweep:
    def test_product_count(self, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        out = str(tmp_path / "runs.csv")
        assert main(["sweep", "--spec", spec, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 1 * 1 * 3
        seeds = {row["seed"] for row in rows}
        assert seeds == {"1", "2", "3"}

    def test_parallel_matches_serial(self, tmp_path):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        out_serial = str(tmp_path / "serial.csv")
        out_parallel = str(tmp_path / "parallel.csv")
        main(["sweep", "--spec", spec, "--out", out_serial])
        main(["sweep", "--spec", spec, "--parallel", "4",
              "--out", out_parallel])
        assert open(out_serial, "rb").read() == open(out_parallel, "rb").read()

    def test_summary_mean_matches_rows(self, tmp_path):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        out = str(tmp_path / "runs.csv")
        main(["sweep", "--spec", spec, "--out", out])
        rows = read_rows(out)
        summary = read_rows(out + ".summary.csv")
        cell = summary[0]
        members = [float(r["pdr_total"]) for r in rows
                   if (r["topology"], r["rx_ratio"], r["objective"],
                       r["node_count"]) == (cell["topology"], cell["rx_ratio"],
                                            cell["objective"],
                                            cell["node_count"])]
        assert float(cell["pdr_mean"]) == pytest.approx(
            statistics.mean(members), abs=1e-6)
        assert cell["runs"] == str(len(members))

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
    def test_schema_documents_are_valid_json(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1]
        for name in ("scenario.schema.json", "sweep.schema.json"):
            payload = json.loads((root / "schemas" / name).read_text())
            assert payload["$schema"].startswith("https://json-schema.org/")

    def test_bundled_configs_validate(self):
        import pathlib
        from rplsim.cli import load_sweep
        from rplsim.scenario import load_scenario
        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        load_scenario(str(root / "grid20_of0.json"))
        load_scenario(str(root / "random40_etx_rx80.json"))
        for name in ("paper_sweep.json", "directional_sweep.json"):
            spec = load_sweep(str(root / name))
            assert spec["seeds_per_cell"] >= 3

    def test_paper_sweep_covers_the_comparison_grid(self):
        import pathlib
        from rplsim.cli import load_sweep, sweep_tasks
        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        spec = load_sweep(str(root / "paper_sweep.json"))
        assert spec["node_counts"] == [20, 40, 60, 80, 100]
        assert sorted(spec["objectives"]) == ["etx", "of0"]
        assert sorted(spec["rx_ratios"]) == [0.8, 1.0]
        assert sorted(spec["topologies"]) == ["grid", "random"]
        assert len(sweep_tasks(spec)) == 5 * 2 * 2 * 2 * 3


class TestPlotData:
    def test_reshape_pdr(self, tmp_path):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        runs = str(tmp_path / "runs.csv")
        main(["sweep", "--spec", spec, "--out", runs])
        out = str(tmp_path / "pdr.csv")
        assert main(["plot-data", "--in", runs, "--figure", "pdr",
                     "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 4            # 2 node counts x 2 objectives
        assert {row["figure"] for row in rows} == {"pdr"}
        for row in rows:
            assert 0.0 <= float(row["mean"]) <= 1.0
            assert row["runs"] == "3"

    def test_reshape_power(self, tmp_path):
        spec = write_json(tmp_path / "s.json", SWEEP_SPEC)
        runs = str(tmp_path / "runs.csv")
        main(["sweep", "--spec", spec, "--out", runs])
        out = str(tmp_path / "power.csv")
        main(["plot-data", "--in", runs, "--figure", "power", "--out", out])
        rows = read_rows(out)
        assert all(float(row["mean"]) > 0 for row in rows)
