"""One fresh interpreter of the benchmark: set-up, timed loop, or traced run.

    python3 child.py '<json arguments>'

run.py starts this with the checkout's src/ on PYTHONPATH and reads the JSON
result it writes to args["result"].  Nothing of rplsim is imported before
the set-up clock starts.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, or of it and its reaped children (getrusage
    reports the largest child, in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def setup(args: dict) -> dict:
    """Import rplsim, validate the workload's first config and generate its
    topology; for the sweep, also import the CLI and load and expand the
    spec."""
    import rplsim
    import workloads

    workload = workloads.make(args["workload"], args["seed"], args["smoke"])
    if workload.parallel > 1:
        import rplsim.cli  # noqa: F401  (the sweep runs through the CLI)
    cfg = rplsim.scenario_from_dict(workload.first_config(args["root"]))
    rplsim.generate_topology(cfg, rplsim.derive_stream(cfg.seed, "topology"))
    setup_s = perf_counter() - START
    loop_s = workloads.calibration_s(3)
    return {"setup_s": setup_s,
            "scaled_setup_s": setup_s * workloads.scale(loop_s, loop_s),
            "calibration_s": loop_s}


def measure(args: dict) -> dict:
    """Whole iterations until `seconds` have passed (at least the workload's
    minimum); peak RSS is read right after the first one."""
    import workloads

    workload = workloads.make(args["workload"], args["seed"], args["smoke"])
    iterations = []
    rss = None
    start = perf_counter()
    while True:
        iterations.append(workload.iteration(args["workdir"], args["root"]))
        if rss is None:
            rss = peak_rss_mb(workload.parallel > 1)
        if perf_counter() - start >= args["seconds"] \
                and len(iterations) >= workload.min_iterations:
            break
    return {"iterations": [asdict(it) for it in iterations],
            "peak_rss_mb": rss}


def trace(args: dict) -> dict:
    """One untraced iteration, then the same iteration with every hook in
    place; the spans are written to args["spans"] at the end."""
    import hooks
    import workloads

    workload = workloads.make(args["workload"], args["seed"], args["smoke"])
    reference = workload.iteration(args["workdir"], args["root"])
    tracer = hooks.Tracer()
    tracer.flush_dir = os.path.join(args["workdir"], "workers")
    os.makedirs(tracer.flush_dir, exist_ok=True)
    restore = hooks.install(tracer)
    try:
        if workload.parallel > 1:
            traced = workload.iteration(args["workdir"], args["root"],
                                        recheck=False)
        else:
            traced = workload.iteration(args["workdir"], args["root"])
    finally:
        restore()
    workers = tracer.merge_workers() if workload.parallel > 1 else None
    overhead = traced.scaled_wall_s / reference.scaled_wall_s - 1.0
    values, absent = hooks.layer_metrics(tracer, overhead, workload.parallel,
                                         workers)
    tracer.dump(args["spans"], {"workload": args["workload"],
                                "seed": args["seed"], "metrics": values,
                                "absent_metrics": absent})
    return {"iterations": [asdict(reference), asdict(traced)],
            "layers": values, "absent": absent}


def main() -> int:
    args = json.loads(sys.argv[1])
    result = {"setup": setup, "measure": measure, "trace": trace}[
        args["mode"]](args)
    with open(args["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
