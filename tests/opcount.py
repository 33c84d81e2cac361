"""Python opcodes and frames per processed event, by module.

    PYTHONPATH=src python3 tests/opcount.py [--repeat N]

Runs three fixed untraced scenarios at seed 1, each 300 s with the default
60 s warmup: random and grid MRHOF at rx 0.8 with 100 nodes, and random
MRHOF at rx 0.8 with 800 nodes on a square of side 300 * sqrt(n / 100) m,
which keeps the node density of the 100-node run.  Each run is counted
under sys.settrace with f_trace_opcodes: every Python frame entered and
every opcode executed, split by the module whose code ran it.  Work done
in C (heapq, getrandbits, dict builtins) is not weighed.

The counts are exact and repeat on every run of the same tree, so one
counted run can rank a change that wall-clock pairs cannot resolve; a speed
claim still needs wall-time pairs.  It is not part of Tier-1 (pytest does
not collect it) and takes about a minute.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

from rplsim.scenario import ScenarioConfig
from rplsim.simulate import run_scenario

RUNS = {
    "random-etx-100": dict(node_count=100, topology="random"),
    "grid-etx-100": dict(node_count=100, topology="grid"),
    "random-etx-800": dict(node_count=800, topology="random",
                           area_side_m=300.0 * math.sqrt(800 / 100)),
}


def module_of(filename: str) -> str:
    """rplsim modules by name (`rpl`), anything else by file (`random.py`)."""
    name = os.path.basename(filename)
    if os.path.basename(os.path.dirname(filename)) == "rplsim":
        return name.removesuffix(".py")
    return name


def count(cfg: ScenarioConfig) -> tuple[int, Counter, Counter]:
    """The run's processed events, and its opcodes and frames by file."""
    opcodes: Counter = Counter()
    frames: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code.co_filename] += 1
        return local

    def entered(frame, event, arg):      # called once per new Python frame
        frames[frame.f_code.co_filename] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(entered)
    try:
        result = run_scenario(cfg)
    finally:
        sys.settrace(None)
    return result.nodes[0].sim.events_processed, opcodes, frames


def report(name: str, events: int, opcodes: Counter, frames: Counter) -> None:
    by_module: Counter = Counter()
    for filename, n in opcodes.items():
        by_module[module_of(filename)] += n
    print(f"{name}: events {events} "
          f"opcodes/event {sum(opcodes.values()) / events:.2f} "
          f"frames/event {sum(frames.values()) / events:.3f}")
    for module, n in by_module.most_common():
        print(f"  {module:<14} {n / events:8.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="count each run this many times (default 1)")
    args = parser.parse_args(argv)
    per_event = {}
    for name, fields in RUNS.items():
        cfg = ScenarioConfig(objective="etx", rx_success_ratio=0.8,
                             duration_s=300.0, seed=1, **fields)
        for _ in range(args.repeat):
            events, opcodes, frames = count(cfg)
            report(name, events, opcodes, frames)
            per_event[name] = sum(opcodes.values()) / events
    print(f"growth 100 -> 800 (random): "
          f"{per_event['random-etx-800'] / per_event['random-etx-100']:.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
