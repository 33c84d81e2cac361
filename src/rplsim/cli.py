"""Command-line front end: single runs, sweep grids, and CSV reshaping."""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import statistics
import sys
from dataclasses import replace

from .engine import to_s
from .scenario import (ConfigError, ScenarioConfig, load_json, load_scenario,
                       load_schema, scenario_from_dict, validate)
from .simulate import RunResult, run_scenario
from .telemetry import TRAFFIC_CLASSES

CSV_COLUMNS = [
    "scenario_id", "topology", "objective", "rx_ratio", "node_count", "seed",
    "duration_s", "warmup_s", "convergence_s", "pdr_total",
    "pdr_high_critical", "pdr_critical", "pdr_low_critical", "pdr_temperature",
    "avg_power_mw", "total_energy_mj", "dio_count", "dis_count",
    "drops_no_route", "drops_mac", "drops_queue", "drops_ttl",
]

CELL_KEYS = ("topology", "rx_ratio", "objective", "node_count")
# the fields sweep_tasks sets on each task from the grid and the seed range,
# in that order; a sweep's base may not set them, as its value would be lost
GRID_FIELDS = ("topology", "objective", "rx_success_ratio", "node_count",
               "seed")


def _fmt(value: float | None, places: int = 6) -> str:
    return "" if value is None else f"{value:.{places}f}"


def result_to_row(result: RunResult) -> dict[str, str]:
    cfg = result.config
    m = result.metrics
    conv = None if m.convergence_us is None else to_s(m.convergence_us)
    row = {
        "scenario_id": cfg.scenario_id,
        "topology": cfg.topology,
        "objective": cfg.objective,
        "rx_ratio": f"{cfg.rx_success_ratio:g}",
        "node_count": str(cfg.node_count),
        "seed": str(cfg.seed),
        "duration_s": f"{cfg.duration_s:g}",
        "warmup_s": f"{cfg.warmup_s:g}",
        "convergence_s": _fmt(conv),
        "pdr_total": _fmt(m.pdr()),
        "avg_power_mw": _fmt(result.avg_power_mw()),
        "total_energy_mj": _fmt(result.total_energy_mj()),
        "dio_count": str(m.dio_count),
        "dis_count": str(m.dis_count),
        "drops_no_route": str(m.drops_by_cause("no-route")),
        "drops_mac": str(m.drops_by_cause("mac-failure")),
        "drops_queue": str(m.drops_by_cause("queue-overflow")),
        "drops_ttl": str(m.drops_by_cause("ttl")),
    }
    for cls in TRAFFIC_CLASSES:
        row[f"pdr_{cls.replace('-', '_')}"] = _fmt(m.pdr(cls))
    return row


def _check_header(path: str) -> bool:
    """True for a new or empty file; ConfigError if the header differs."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if next(csv.reader(fh), None) != CSV_COLUMNS:
            raise ConfigError(f"{path}: existing header differs from the "
                              "result columns; write to a new file")
    return False


def append_rows(path: str, rows: list[dict[str, str]]) -> None:
    new_file = _check_header(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        if new_file:
            writer.writeheader()
        writer.writerows(rows)


# ----------------------------------------------------------------------- run

def cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trace is not None:              # refuse a bad --trace or --out
        open(args.trace, "a").close()       # before the run
    append_rows(args.out, [])
    result = run_scenario(cfg, trace=args.trace is not None)
    append_rows(args.out, [result_to_row(result)])
    if args.trace is not None:
        result.trace.write_jsonl(args.trace)
    pdr = result.metrics.pdr()
    print(f"{cfg.scenario_id} seed={cfg.seed}: "
          f"pdr={'n/a' if pdr is None else f'{pdr:.4f}'} "
          f"avg_power={result.avg_power_mw():.4f} mW -> {args.out}")
    return 0


# --------------------------------------------------------------------- sweep

def load_sweep(path: str) -> dict:
    raw = load_json(path, "sweep")
    validate(raw, load_schema("sweep"))
    for key in GRID_FIELDS:
        if key in raw.get("base", {}):
            raise ConfigError(f"base.{key}: set by the sweep grid, not the "
                              f"base (got {raw['base'][key]!r})")
    return raw


def sweep_tasks(spec: dict) -> list[dict]:
    """Expand a sweep document into per-run scenario dicts, in grid order."""
    base = spec.get("base", {})
    seeds = spec.get("seeds_per_cell", 1)
    base_seed = spec.get("base_seed", 1)
    tasks = []
    for topology, objective, rx, node_count in itertools.product(
            spec["topologies"], spec["objectives"], spec["rx_ratios"],
            spec["node_counts"]):
        for offset in range(seeds):
            cell = (topology, objective, rx, node_count, base_seed + offset)
            tasks.append({**base, **dict(zip(GRID_FIELDS, cell))})
    return tasks


def _sweep_worker(cfg: ScenarioConfig):
    try:
        return result_to_row(run_scenario(cfg)), None
    except Exception as exc:
        return None, str(exc)


def _pool_outcomes(pool, configs: list):
    """Each cell's (row, error) in grid order; a cell lost to a dead worker
    gets the broken pool's error, and the cells done before it their rows."""
    from concurrent.futures.process import BrokenProcessPool
    for future in [pool.submit(_sweep_worker, cfg) for cfg in configs]:
        try:
            yield future.result()
        except BrokenProcessPool as exc:
            yield None, f"BrokenProcessPool: {exc}"


def _number(path: str, column: str, text, parse=float):
    """text parsed as a finite number; a ConfigError naming path and column
    if not, as statistics cannot summarize an infinity or a NaN."""
    try:
        value = parse(text)
    except (TypeError, ValueError):     # TypeError: None from a short row
        value = math.nan
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: {column} must be a finite number "
                          f"(got {text!r})")
    return value


def _cells(rows: list[dict[str, str]], column: str,
           path: str) -> dict[tuple, list]:
    """Non-empty values of column per CELL_KEYS cell, in first-seen order."""
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        values = cells.setdefault(tuple(row[k] for k in CELL_KEYS), [])
        if row[column]:
            values.append(_number(path, column, row[column]))
    return cells


def _mean_std(values: list[float]) -> tuple[str, str]:
    if not values:
        return "", ""
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return _fmt(statistics.mean(values)), _fmt(std)


def summarize(rows: list[dict[str, str]]) -> list[dict[str, str]]:
    """Per-cell mean/stddev of PDR and power, cells in first-seen order."""
    pdr = _cells(rows, "pdr_total", "sweep rows")
    out = []
    for key, power in _cells(rows, "avg_power_mw", "sweep rows").items():
        entry = dict(zip(CELL_KEYS, key), runs=str(len(power)))
        entry["pdr_mean"], entry["pdr_stddev"] = _mean_std(pdr[key])
        entry["power_mean"], entry["power_stddev"] = _mean_std(power)
        out.append(entry)
    return out


SUMMARY_COLUMNS = list(CELL_KEYS) + ["runs", "pdr_mean", "pdr_stddev",
                                     "power_mean", "power_stddev"]


def cmd_sweep(args) -> int:
    spec = load_sweep(args.spec)
    tasks = sweep_tasks(spec)
    configs = []
    for index, raw in enumerate(tasks):     # refuse a bad cell or --out
        try:                                # before the first run
            configs.append(scenario_from_dict(raw))
        except ConfigError as exc:
            raise ConfigError(f"sweep cell {index}: {exc}") from None
    append_rows(args.out, [])               # the header, or refuse --out
    rows, errors = [], []
    workers = min(args.parallel, len(configs))  # the pool forks them all
    if workers > 1:     # only a parallel sweep loads the pool's modules
        import concurrent.futures
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else contextlib.nullcontext()) as pool:
        # outcomes come in task (grid) order; each row is appended as it
        # comes, so an interrupted sweep keeps those done
        outcomes = (_pool_outcomes(pool, configs) if pool
                    else map(_sweep_worker, configs))
        for index, (row, error) in enumerate(outcomes):
            if row is None:
                errors.append((index, error))
            else:
                rows.append(row)
                append_rows(args.out, [row])

    if errors:
        failures_path = args.out + ".failures.csv"
        with open(failures_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["task_index", "config", "error"])
            for index, error in errors:
                writer.writerow([index, json.dumps(tasks[index],
                                                   sort_keys=True), error])
                print(f"sweep cell {index} failed: {error}", file=sys.stderr)

    summary = summarize(rows)
    summary_path = args.out + ".summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(summary)

    print(" ".join(f"{c:>12}" for c in SUMMARY_COLUMNS))
    for entry in summary:
        print(" ".join(f"{entry[c]:>12}" for c in SUMMARY_COLUMNS))
    print(f"{len(rows)} runs -> {args.out} (summary: {summary_path})")
    return 0 if not errors else 1


# ----------------------------------------------------------------- plot-data

def cmd_plot_data(args) -> int:
    metric = {"pdr": "pdr_total", "power": "avg_power_mw"}[args.figure]
    with open(args.infile, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in (*CELL_KEYS, metric)
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{args.infile}: missing result column(s) "
                          + ", ".join(missing))
    # every value is parsed before --out is opened
    cells = _cells(rows, metric, args.infile)
    keys = [key for key in sorted(cells, key=lambda k: (
                *k[:3], _number(args.infile, "node_count", k[3], int)))
            if cells[key]]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["figure", *CELL_KEYS, "mean", "stddev", "runs"])
        for key in keys:
            writer.writerow([args.figure, *key, *_mean_std(cells[key]),
                             len(cells[key])])
    print(f"{len(keys)} cells -> {args.out}")
    return 0


# ---------------------------------------------------------------------- main

def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rplsim",
        description="Deterministic RPL routing simulator (OF0 vs ETX/MRHOF)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default="results.csv", help="CSV to append to")
    p_run.add_argument("--trace", default=None,
                       help="write the full event trace to this JSONL file")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of scenarios")
    p_sweep.add_argument("--spec", required=True, help="sweep JSON file")
    p_sweep.add_argument("--parallel", type=positive_int, default=1,
                         help="worker processes (results are order-independent)")
    p_sweep.add_argument("--out", required=True, help="CSV for per-run rows")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot-data",
                            help="reshape run CSV into per-figure long format")
    p_plot.add_argument("--in", dest="infile", required=True)
    p_plot.add_argument("--figure", choices=("pdr", "power"), required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:                  # names the file it could not open
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
