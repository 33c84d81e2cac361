"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload etx_lossy_100 --seeds 1-10 [--seconds 20] [--out FILE]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median: the figure a metric's bound in BENCHMARK.json
must stay above.  --out writes the per-run results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    notes = dict(item.split("=", 1) for line in lines
                 if line.startswith("# workload")
                 for item in line.split() if "=" in item)
    return {**json.loads(lines[-1]), "notes": notes}


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    results = []
    for seed in seeds_of(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        results.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            + f" failed={result['failed']}/{result['attempted']} "
            + " ".join(f"{k}={v}" for k, v in result["notes"].items()
                       if k.startswith(("raw_", "calibration"))), flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:<32} median {s['median']:<12.6g} {s['unit']:<14} "
              f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "trace": args.trace, "runs": results,
                       "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
