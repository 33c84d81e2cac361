"""rplsim benchmark: host-time cost of the simulator on three workloads.

    python3 perfbench/run.py --workload etx_lossy_100 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  With --trace 0 it measures the end-to-end
metrics with no tracing in place; with --trace 1 it makes one untraced and
one traced iteration and reports the per-layer metrics.  Every metric is
printed as `name value unit`; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  --smoke runs
every workload at a tiny size in both modes and checks that each metric
BENCHMARK.json names is reported with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hooks  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "run_wall_s.p50": "s",
                    "node_sim_s_per_s": "node-s/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(args: dict, workdir: str) -> dict:
    """Run child.py in a fresh interpreter of its own process group and
    return its JSON result; on timeout the whole group is killed."""
    result_path = os.path.join(workdir, f"child-{args['mode']}.json")
    args = {**args, "root": ROOT, "workdir": workdir, "result": result_path}
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                             json.dumps(args)], cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{args['mode']} child timed out")
    finally:
        # pool workers a crashed child left behind share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{args['mode']} child exited {proc.returncode}:\n"
                          f"{out[-2000:]}{err[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def determinism_failures(iterations: list[dict]) -> int:
    """Runs whose output digest differs from the first iteration's."""
    first = iterations[0]["run_digests"]
    return sum(1 for it in iterations[1:]
               for a, b in zip(first, it["run_digests"]) if a != b)


def measure(base: dict, workdir: str) -> tuple[dict, dict]:
    """End-to-end metrics (tracing off) and the run counts.  Times are
    scaled by the calibration loop; the raw host times go to the notes."""
    run_child({**base, "mode": "setup"}, workdir)         # fills bytecode caches
    setups = [run_child({**base, "mode": "setup"}, workdir)
              for _ in range(SETUP_REPEATS)]
    timed = run_child({**base, "mode": "measure"}, workdir)
    iterations = timed["iterations"]
    med = statistics.median

    def runs(key: str) -> list[float]:
        return [w for it in iterations for w in it[key]]

    metrics = {
        "wall_s": med(it["scaled_wall_s"] for it in iterations),
        "run_wall_s.p50": med(runs("scaled_run_walls")),
        "node_sim_s_per_s": med(it["node_seconds"] / it["scaled_wall_s"]
                                for it in iterations),
        "setup_s": med(s["scaled_setup_s"] for s in setups),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    notes = {
        "iterations": len(iterations),
        "run_wall_samples": len(runs("run_walls")),
        "setup_samples": len(setups),
        "raw_wall_s": round(med(it["wall_s"] for it in iterations), 4),
        "raw_run_wall_s.p50": round(med(runs("run_walls")), 4),
        "raw_setup_s": round(med(s["setup_s"] for s in setups), 4),
        "calibration_s.p50": round(med(runs("calibration_s")), 4),
    }
    return metrics, {"iterations": iterations, "notes": notes}


def traced(base: dict, workdir: str, spans: str) -> tuple[dict, dict]:
    result = run_child({**base, "mode": "trace", "spans": spans}, workdir)
    notes = {"absent": result["absent"], "spans": os.path.relpath(spans, ROOT)}
    return result["layers"], {"iterations": result["iterations"],
                              "notes": notes}


def bench(workload: str, seed: int, seconds: int, trace: bool,
          smoke: bool = False) -> dict:
    """One invocation: returns the result object the last line prints."""
    out_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    base = {"workload": workload, "seed": seed, "seconds": seconds,
            "smoke": smoke}
    try:
        if trace:
            spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
            metrics, info = traced(base, workdir, spans)
            units = hooks.PER_LAYER_UNITS
        else:
            metrics, info = measure(base, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = info["iterations"]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations) \
        + determinism_failures(iterations)
    for problem in (p for it in iterations for p in it["problems"]):
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"# workload {workload} seed {seed} trace {int(trace)} "
          + " ".join(f"{k}={v}" for k, v in info["notes"].items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"runs_failed {failed} count (of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def smoke() -> int:
    """Every workload at a tiny size, both modes; each metric BENCHMARK.json
    names must be reported with the unit it declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = bench(workload, 1, 1, trace, smoke=True)
            got = result["metrics"]
            for metric in declared[key]:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: "
                                    f"{metric['name']} [{metric['unit']}] "
                                    f"reported as {entry}")
            extra = set(got) - {m["name"] for m in declared[key]}
            problems += [f"{workload}: undeclared metric {m}" for m in extra]
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: "
                                f"{result['failed']} runs failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rplsim", "__init__.py")):
        print(f"no rplsim sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
