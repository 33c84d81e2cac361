"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop: one run (or one sweep command) at a time,
the next starting when the previous one returns.  An iteration repeats the
same inputs, so iterations of one invocation must produce identical bytes.

This module imports only the standard library at load time; rplsim is
imported inside the functions that need it, after the caller has put the
checkout's src/ on sys.path.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from calibrate import Sampler, calibration_s, scale

WORKLOADS = ("etx_lossy_100", "of0_clean_traced_100", "paper_sweep_p2")

SWEEP_SPEC = os.path.join("configs", "paper_sweep.json")
SWEEP_PARALLEL = 2
# sha256 of the CSV that `rplsim sweep --spec configs/paper_sweep.json`
# writes with base_seed 1, header included.
PAPER_SWEEP_SEED1_SHA256 = (
    "e35e1edd39766954c8dbe798a3686ab037864b52e5a0e0548f0bbf421a760af2")

DEFAULT_DURATION_S = 900.0      # ScenarioConfig's default duration_s

SMOKE_SIZE = {"node_count": 12, "area_side_m": 150.0, "duration_s": 200.0,
              "warmup_s": 30.0}
SMOKE_SWEEP = {"node_counts": [10], "seeds_per_cell": 1,
               "base": {"area_side_m": 120.0, "grid_spacing_m": 60.0,
                        "duration_s": 120.0, "warmup_s": 30.0}}


def run_seeds(seed: int, count: int) -> list[int]:
    """`count` run seeds derived from the workload seed; seeds 1, 2, ... give
    disjoint blocks (seed 1 gives 1..count)."""
    return [(seed - 1) * count + 1 + k for k in range(count)]


@dataclass
class Iteration:
    """Raw host times, and the same times scaled by the calibration loop
    timed around them (see calibrate.py)."""
    wall_s: float = 0.0              # host time of the workload's own work
    scaled_wall_s: float = 0.0
    node_seconds: float = 0.0        # sum of node_count * duration_s
    run_walls: list[float] = field(default_factory=list)
    scaled_run_walls: list[float] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)
    run_digests: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0                  # runs that raised or failed a check
    problems: list[str] = field(default_factory=list)

    def fail(self, runs: int, problem: str) -> None:
        self.failed += runs
        self.problems.append(problem)


# ------------------------------------------------------------------ checks

def check_result(result) -> list[str]:
    """Packet conservation per class, cpu + lpm == elapsed per ledger, and a
    loop-free sink-rooted parent tree over the joined nodes."""
    problems = []
    m = result.metrics
    for cls, sent in m.sent.items():
        dropped = sum(m.drops[cls].values())
        if sent != m.delivered[cls] + dropped:
            problems.append(f"{cls}: sent {sent} != delivered "
                            f"{m.delivered[cls]} + drops {dropped}")
    for nid, ledger in result.ledgers.items():
        if ledger.cpu_us + ledger.lpm_us != result.elapsed_us:
            problems.append(f"node {nid}: cpu + lpm != elapsed")
    sinks = [nid for nid, snap in result.nodes.items() if snap.role == "sink"]
    if len(sinks) != 1:
        problems.append(f"{len(sinks)} sinks")
    for nid, snap in result.nodes.items():
        if not snap.joined or snap.role == "sink":
            continue
        depth = result.depth(nid)
        if depth is None:
            problems.append(f"node {nid}: parent chain misses the sink")
        elif depth != (result.depth(snap.preferred_parent) or 0) + 1:
            problems.append(f"node {nid}: depth does not follow its parent")
    return problems


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# -------------------------------------------------------- single-run loops

class SingleRuns:
    """A fixed list of scenarios, run one after another through
    scenario_from_dict and run_scenario; each row goes through result_to_row
    into one CSV, and traced runs write their JSONL trace like
    `rplsim run --trace` does."""

    min_iterations = 2
    parallel = 1

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        size = SMOKE_SIZE if smoke else {}
        if name == "etx_lossy_100":
            seeds = run_seeds(seed, 1)
            self.trace = False
            self.configs = [
                {"node_count": 100, "topology": topology, "objective": "etx",
                 "rx_success_ratio": 0.8, "seed": s, **size}
                for topology in ("random", "grid") for s in seeds]
        else:
            seeds = run_seeds(seed, 2 if smoke else 4)
            self.trace = True
            self.configs = [
                {"node_count": 100, "topology": "random", "objective": "of0",
                 "rx_success_ratio": 1.0, "seed": s, **size} for s in seeds]

    def first_config(self, root: str) -> dict:
        return self.configs[0]

    def iteration(self, workdir: str, root: str) -> Iteration:
        import rplsim
        import rplsim.cli

        out = Iteration()
        csv_path = os.path.join(workdir, f"{self.name}.csv")
        trace_path = os.path.join(workdir, f"{self.name}.jsonl")
        with contextlib.suppress(FileNotFoundError):
            os.remove(csv_path)
        before = calibration_s()
        for raw in self.configs:
            out.attempted += 1
            out.node_seconds += raw["node_count"] * raw.get("duration_s",
                                                         DEFAULT_DURATION_S)
            try:
                start = perf_counter()
                cfg = rplsim.scenario_from_dict(raw)
                run_start = perf_counter()
                result = rplsim.run_scenario(cfg, trace=self.trace)
                run_s = perf_counter() - run_start
                row = rplsim.cli.result_to_row(result)
                with open(csv_path, "a", encoding="utf-8", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=list(row),
                                            lineterminator="\n")
                    if fh.tell() == 0:
                        writer.writeheader()
                    writer.writerow(row)
                if self.trace:
                    result.trace.write_jsonl(trace_path)
                work_s = perf_counter() - start
            except Exception as exc:          # a failed run is counted, not fatal
                out.fail(1, f"seed {raw['seed']} {raw['topology']}: "
                            f"{type(exc).__name__}: {exc}")
                out.run_digests.append("")
                continue
            after = calibration_s()
            factor = scale(before, after)
            out.calibration_s.append(after)
            out.wall_s += work_s
            out.scaled_wall_s += work_s * factor
            out.run_walls.append(run_s)
            out.scaled_run_walls.append(run_s * factor)
            before = after
            problems = check_result(result)
            if problems:
                out.fail(1, f"seed {raw['seed']} {raw['topology']}: "
                            + "; ".join(problems[:3]))
            trace_bytes = b""
            if self.trace:
                with open(trace_path, "rb") as fh:
                    trace_bytes = fh.read()
            out.run_digests.append(_digest(
                json.dumps(row, sort_keys=True).encode(), trace_bytes))
            del result, trace_bytes     # one run's trace in memory at a time
        return out


# ------------------------------------------------------------------ sweep

def expand_sweep(spec: dict) -> list[dict]:
    """Per-run scenario documents in the CLI's grid order: topology,
    objective, rx ratio, node count, then seed."""
    tasks = []
    for topology, objective, rx, nodes in itertools.product(
            spec["topologies"], spec["objectives"], spec["rx_ratios"],
            spec["node_counts"]):
        for offset in range(spec.get("seeds_per_cell", 1)):
            tasks.append({**spec.get("base", {}), "topology": topology,
                          "objective": objective, "rx_success_ratio": rx,
                          "node_count": nodes,
                          "seed": spec.get("base_seed", 1) + offset})
    return tasks


class Sweep:
    """`rplsim sweep --parallel 2` over configs/paper_sweep.json with
    base_seed set to the workload seed.

    The sweep's runs happen in the CLI's worker processes, out of the
    benchmark's reach, so the cells with the most nodes of the first seed
    (eight in the paper grid) are run again in this process: their rows
    must match the sweep's, their results pass check_result, and their run
    times give run_wall_s.
    """

    min_iterations = 1
    parallel = SWEEP_PARALLEL

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name = name
        self.seed = seed
        self.smoke = smoke

    def spec(self, root: str) -> dict:
        with open(os.path.join(root, SWEEP_SPEC), encoding="utf-8") as fh:
            spec = json.load(fh)
        spec["base_seed"] = self.seed
        if self.smoke:
            spec.update(SMOKE_SWEEP)
        return spec

    def first_config(self, root: str) -> dict:
        return expand_sweep(self.spec(root))[0]

    def golden(self) -> str | None:
        return PAPER_SWEEP_SEED1_SHA256 if self.seed == 1 and not self.smoke \
            else None

    def iteration(self, workdir: str, root: str, recheck: bool = True
                  ) -> Iteration:
        import rplsim
        import rplsim.cli

        spec = self.spec(root)
        tasks = expand_sweep(spec)
        spec_path = os.path.join(workdir, "sweep_spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        out_path = os.path.join(workdir, "sweep.csv")
        for suffix in ("", ".summary.csv", ".failures.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path + suffix)

        out = Iteration(attempted=len(tasks))
        out.node_seconds = sum(
            t["node_count"] * t.get("duration_s", DEFAULT_DURATION_S)
            for t in tasks)
        start = perf_counter()
        with Sampler() as sampler, contextlib.redirect_stdout(io.StringIO()):
            try:
                code = rplsim.cli.main(["sweep", "--spec", spec_path,
                                        "--parallel", str(self.parallel),
                                        "--out", out_path])
            except Exception as exc:      # counted below as missing rows
                code = f"{type(exc).__name__}: {exc}"
        out.wall_s = perf_counter() - start
        out.calibration_s = sampler.samples or [calibration_s(3)]
        loop_s = statistics.median(out.calibration_s)
        out.scaled_wall_s = out.wall_s * scale(loop_s, loop_s)
        data = b""
        with contextlib.suppress(FileNotFoundError):
            with open(out_path, "rb") as fh:
                data = fh.read()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        out.run_digests = [_digest(json.dumps(r, sort_keys=True).encode())
                           for r in rows]
        if code != 0 or len(rows) != len(tasks):
            out.fail(max(1, len(tasks) - len(rows)), f"sweep returned {code} "
                     f"with {len(rows)} of {len(tasks)} rows")
        golden = self.golden()
        if golden is not None and _digest(data) != golden:
            # which rows moved is unknown, so every run of the sweep counts
            out.fail(len(tasks), f"sweep CSV sha256 {_digest(data)} "
                     f"!= {golden}")
        if not recheck:
            return out

        largest = max(spec["node_counts"])
        cells = [i for i, t in enumerate(tasks)
                 if t["node_count"] == largest
                 and t["seed"] == spec["base_seed"]]
        before = calibration_s()
        for index in cells:
            out.attempted += 1
            try:
                cfg = rplsim.scenario_from_dict(tasks[index])
                run_start = perf_counter()
                result = rplsim.run_scenario(cfg)
                run_s = perf_counter() - run_start
            except Exception as exc:      # a failed run is counted, not fatal
                out.fail(1, f"cell {index}: {type(exc).__name__}: {exc}")
                continue
            after = calibration_s()
            out.run_walls.append(run_s)
            out.scaled_run_walls.append(run_s * scale(before, after))
            before = after
            row = rplsim.cli.result_to_row(result)
            problems = check_result(result)
            if index >= len(rows) or rows[index] != row:
                problems.append("sweep row differs from the same cell run "
                                "in this process")
            if problems:
                out.fail(1, f"cell {index}: " + "; ".join(problems[:3]))
        return out


def make(name: str, seed: int, smoke: bool = False):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if name == "paper_sweep_p2":
        return Sweep(name, seed, smoke)
    return SingleRuns(name, seed, smoke)
