"""Python opcodes and frames per processed event, by module.

    PYTHONPATH=src python3 tests/opcount.py [--repeat N] [--top N]

Runs three fixed untraced scenarios at seed 1, each 300 s with the default
60 s warmup: random and grid MRHOF at rx 0.8 with 100 nodes, and random
MRHOF at rx 0.8 with 800 nodes on a square of side 300 * sqrt(n / 100) m,
which keeps the node density of the 100-node run.  Each run is counted
under sys.settrace with f_trace_opcodes: every Python frame entered and
every opcode executed, split by the module whose code ran it.  Work done
in C (heapq, getrandbits, dict builtins) is not weighed.  --top N also
lists the N functions that run the most opcodes per processed event, each
with its calls (frames entered) and opcodes per call; a function is named
by module and qualified name, so the __init__s that dataclasses generate
share one row under <string>.

The counts are exact and repeat on every run of the same tree, so one
counted run can rank a change that wall-clock pairs cannot resolve; a speed
claim still needs wall-time pairs.  It is not part of Tier-1 (pytest does
not collect it) and takes about a minute.

    PYTHONPATH=src python3 tests/opcount.py --memory [--repeat N]

instead measures memory under tracemalloc, for two seed-1 runs each made
untraced and then traced: random OF0 at rx 1.0 with 100 nodes for 900 s, and
random MRHOF at rx 0.8 with 800 nodes for 300 s on the square above.  It
prints the Python heap live when the run returns (its result still held)
and the peak during it, in MB, the traced run's extra live bytes per trace
record, and the bytes of JSONL text its recorder keeps on disk instead.
These counts repeat exactly from one invocation to the next; a repeat
within one invocation reads a few kB lower, as the first run also fills
one-time caches.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import tracemalloc
from collections import Counter

from oracles import trace_records
from rplsim.scenario import ScenarioConfig
from rplsim.simulate import run_scenario

RUNS = {
    "random-etx-100": dict(node_count=100, topology="random"),
    "grid-etx-100": dict(node_count=100, topology="grid"),
    "random-etx-800": dict(node_count=800, topology="random",
                           area_side_m=300.0 * math.sqrt(800 / 100)),
}
MEMORY_RUNS = {
    "random-of0-100-900s": dict(node_count=100, topology="random",
                                objective="of0", rx_success_ratio=1.0,
                                duration_s=900.0),
    "random-etx-800-300s": dict(**RUNS["random-etx-800"], objective="etx",
                                rx_success_ratio=0.8, duration_s=300.0),
}


def module_of(filename: str) -> str:
    """rplsim modules by name (`rpl`), anything else by file (`random.py`)."""
    name = os.path.basename(filename)
    if os.path.basename(os.path.dirname(filename)) == "rplsim":
        return name.removesuffix(".py")
    return name


def count(cfg: ScenarioConfig) -> tuple[int, Counter, Counter]:
    """The run's processed events, and its opcodes and frames by module and
    function."""
    opcodes: Counter = Counter()        # by id: a code object hashes slowly
    frames: Counter = Counter()
    codes = {}

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[id(frame.f_code)] += 1
        return local

    def entered(frame, event, arg):      # called once per new Python frame
        code = frame.f_code
        codes[id(code)] = code
        frames[id(code)] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(entered)
    try:
        result = run_scenario(cfg)
    finally:
        sys.settrace(None)

    def named(counts: Counter) -> Counter:
        """counts summed by (module, qualified name); 3.10 has no
        co_qualname, so there a function goes by its bare name."""
        by_name: Counter = Counter()
        for i, n in counts.items():
            code = codes[i]
            by_name[module_of(code.co_filename),
                    getattr(code, "co_qualname", code.co_name)] += n
        return by_name
    return result.nodes[0].sim.events_processed, named(opcodes), named(frames)


def report(name: str, events: int, opcodes: Counter, frames: Counter,
           top: int) -> None:
    by_module: Counter = Counter()
    for (module, _), n in opcodes.items():
        by_module[module] += n
    print(f"{name}: events {events} "
          f"opcodes/event {sum(opcodes.values()) / events:.2f} "
          f"frames/event {sum(frames.values()) / events:.3f}")
    for module, n in by_module.most_common():
        print(f"  {module:<14} {n / events:8.2f}")
    if top:
        print(f"  {'opcodes/event':>13} {'calls':>9} {'opcodes/call':>12}"
              f"  function")
    for (module, qualname), n in opcodes.most_common(top):
        calls = frames[module, qualname]
        print(f"  {n / events:13.2f} {calls:9d} {n / calls:12.1f}"
              f"  {module}:{qualname}")


def heap(cfg: ScenarioConfig, trace: bool) -> tuple[int, int, int, int]:
    """Bytes live at the run's return and at its peak, its records, and the
    bytes of trace text its recorder keeps in its temporary file."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(cfg, trace=trace)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spilled = result.trace._file
    disk = 0 if spilled is None else os.fstat(spilled.fileno()).st_size
    records = len(trace_records(result.trace)) if trace else 0
    return live, peak, records, disk


def memory(repeat: int) -> None:
    for name, fields in MEMORY_RUNS.items():
        cfg = ScenarioConfig(seed=1, **fields)
        for _ in range(repeat):
            bare, _, _, _ = heap(cfg, False)
            live, peak, records, disk = heap(cfg, True)
            print(f"{name}: live {live / 2**20:.2f} MB ({live} B), "
                  f"peak {peak / 2**20:.2f} MB ({peak} B), untraced live "
                  f"{bare / 2**20:.2f} MB ({bare} B); {records} records, "
                  f"{(live - bare) / records:.1f} B/record; on disk "
                  f"{disk / 2**20:.2f} MB ({disk} B)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=1,
                        help="count each run this many times (default 1)")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also list the N functions that run the most "
                        "opcodes per event")
    parser.add_argument("--memory", action="store_true",
                        help="measure the heap of traced runs instead")
    args = parser.parse_args(argv)
    if args.memory:
        memory(args.repeat)
        return 0
    per_event = {}
    for name, fields in RUNS.items():
        cfg = ScenarioConfig(objective="etx", rx_success_ratio=0.8,
                             duration_s=300.0, seed=1, **fields)
        for _ in range(args.repeat):
            events, opcodes, frames = count(cfg)
            report(name, events, opcodes, frames, args.top)
            per_event[name] = sum(opcodes.values()) / events
    print(f"growth 100 -> 800 (random): "
          f"{per_event['random-etx-800'] / per_event['random-etx-100']:.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
