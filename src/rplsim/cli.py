"""Command-line front end: single runs, sweep grids, and CSV reshaping."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import statistics
import sys
from dataclasses import replace

from .engine import derive_stream, to_s
from .scenario import (ConfigError, ScenarioConfig, generate_topology,
                       load_json, load_scenario, load_schema,
                       scenario_from_dict, validate)
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
# each grid list of a sweep and the scenario field it sets on every task,
# in the order sweep_tasks expands them; the seed range sets "seed"
GRID = {"topologies": "topology", "objectives": "objective",
        "rx_ratios": "rx_success_ratio", "node_counts": "node_count"}


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def append_rows(path: str, rows: list[dict[str, str]]) -> None:
    new_file = _check_header(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        if new_file:
            writer.writeheader()
        writer.writerows(rows)


# ----------------------------------------------------------------------- run

def cmd_run(args) -> int:
    if args.trace is not None and \
            os.path.realpath(args.trace) == os.path.realpath(args.out):
        raise ConfigError("--trace: names the --out file; give it another")
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    # refuse a layout that cannot connect before touching --trace or --out
    positions = generate_topology(cfg, derive_stream(cfg.seed, "topology"))
    if args.trace is not None:              # refuse a bad --trace or --out
        open(args.trace, "a").close()       # before the run
    append_rows(args.out, [])
    result = run_scenario(cfg, positions, trace=args.trace is not None)
    append_rows(args.out, [result_to_row(result)])
    if args.trace is not None:
        result.trace.write_jsonl(args.trace)
    pdr = result.metrics.pdr()
    print(f"{cfg.scenario_id} seed={cfg.seed}: "
          f"pdr={'n/a' if pdr is None else f'{pdr:.4f}'} "
          f"avg_power={result.avg_power_mw():.4f} mW -> {args.out}")
    return 0


# --------------------------------------------------------------------- sweep

@functools.cache
def sweep_schema() -> dict:
    """sweep.schema.json with the scenario schema's rules filled in: each
    grid list's items take its field's rule and base_seed takes seed's,
    and base may set any scenario field that no task takes from the grid."""
    scenario, sweep = load_schema("scenario"), load_schema("sweep")
    rules = scenario["properties"]
    properties = dict(sweep["properties"], base_seed=rules["seed"],
                      base=dict(scenario, required=(), properties={
                          key: rule for key, rule in rules.items()
                          if key not in (*GRID.values(), "seed")}))
    for key, field in GRID.items():
        properties[key] = dict(properties[key], items=rules[field])
    return dict(sweep, properties=properties)


def load_sweep(path: str) -> dict:
    raw = load_json(path, "sweep")
    validate(raw, sweep_schema())
    # an entry that prints as an earlier one in the rows repeats its cell
    for key in GRID:
        printed = [f"{v:g}" if key == "rx_ratios" else str(v)
                   for v in raw[key]]
        for index, text in enumerate(printed):
            if text in printed[:index]:
                raise ConfigError(f"{key}[{index}]: repeats an earlier entry "
                                  f"(got {raw[key][index]!r})")
    return raw


def sweep_tasks(spec: dict) -> list[dict]:
    """Expand a sweep document into per-run scenario dicts, in grid order."""
    base = spec.get("base", {})
    seeds = spec.get("seeds_per_cell", 1)
    base_seed = spec.get("base_seed", 1)
    return [{**base, **dict(zip(GRID.values(), cell)),
             "seed": base_seed + offset}
            for cell in itertools.product(*(spec[key] for key in GRID))
            for offset in range(seeds)]


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


def _cell_stats(rows: list[dict[str, str]], column: str,
                path: str) -> dict[tuple, tuple[str, str, int]]:
    """(mean, stddev, runs) of column's non-empty values per CELL_KEYS
    cell, cells in first-seen order; a cell without values has ("", "", 0)."""
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        values = cells.setdefault(tuple(row[k] for k in CELL_KEYS), [])
        if row[column]:
            values.append(_number(path, column, row[column]))
    return {key: (_fmt(statistics.mean(v)),
                  _fmt(statistics.stdev(v) if len(v) > 1 else 0.0), len(v))
            if v else ("", "", 0) for key, v in cells.items()}


SUMMARY_COLUMNS = list(CELL_KEYS) + ["runs", "pdr_mean", "pdr_stddev",
                                     "power_mean", "power_stddev"]


def summarize(rows: list[dict[str, str]]) -> list[dict[str, str]]:
    """Per-cell mean/stddev of PDR and power, cells in first-seen order."""
    pdr = _cell_stats(rows, "pdr_total", "sweep rows")
    return [dict(zip(SUMMARY_COLUMNS, (*key, str(runs), *pdr[key][:2],
                                       mean, std)))
            for key, (mean, std, runs)
            in _cell_stats(rows, "avg_power_mw", "sweep rows").items()]


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
        _write_csv(args.out + ".failures.csv",
                   ["task_index", "config", "error"],
                   [[index, json.dumps(tasks[index], sort_keys=True), error]
                    for index, error in errors])
        for index, error in errors:
            print(f"sweep cell {index} failed: {error}", file=sys.stderr)

    summary = summarize(rows)
    summary_path = args.out + ".summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS,
               [[entry[c] for c in SUMMARY_COLUMNS] for entry in summary])

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
    cells = _cell_stats(rows, metric, args.infile)
    keys = [key for key in sorted(cells, key=lambda k: (
                *k[:3], _number(args.infile, "node_count", k[3], int)))
            if cells[key][2]]
    _write_csv(args.out, ["figure", *CELL_KEYS, "mean", "stddev", "runs"],
               [[args.figure, *key, *cells[key]] for key in keys])
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
