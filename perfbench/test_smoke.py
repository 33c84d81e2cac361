"""The benchmark's own test: every workload at a tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py

It runs `run.py --smoke`, which fails when a metric BENCHMARK.json declares
is missing or reported with another unit, or when a tiny run fails a check.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_reports_every_declared_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_refuses_to_run_without_sources(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench / name)
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--workload", "etx_lossy_100", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
