"""Per-layer tracing of rplsim from outside the package.

Nothing under src/ knows about this module.  `install` wraps the public
functions and methods of each rplsim module (the layers are the module
names), plus the callbacks the event kernel dispatches, which are
attributed to the layer their `__module__` names.  Every wrapped call is a
frame on one stack, so a layer's self time is the time its frames were on
top of the stack: span time minus the child spans it covers.

Fine-grained frames (one per event, per objective call, per ledger charge)
are only aggregated per (layer, name).  Coarse frames (a run, a topology, a
trace write, a sweep command) are also kept as spans with name, start, end
and parent, held in memory and written out by `Tracer.dump` when the run
ends.

Each hook states the signature it expects.  A hook whose target is missing
or whose signature differs is skipped, and the metrics that depend on it
are reported as absent instead of wrong.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("engine", "medium", "rpl", "objective", "telemetry", "scenario",
          "simulate", "cli")

# Names whose every call is kept as an individual span.
KEPT_SPANS = {"run_scenario", "Simulator.run_until", "scenario_from_dict",
              "generate_topology", "result_to_row", "append_rows",
              "TraceRecorder.write_jsonl", "main", "cmd_sweep",
              "load_sweep", "sweep_tasks", "summarize"}

OUTCOME_KEYS = {"DELIVERED": "delivered", "LOST_RANDOM": "lost_random",
                "LOST_COLLISION": "lost_collision"}


def layer_of(obj) -> str:
    """Layer of a function or callback: the rplsim module that defines it."""
    module = getattr(obj, "__module__", None) or ""
    if module.startswith("rplsim."):
        name = module.split(".")[1]
        if name in LAYERS:
            return name
    return "other"


def qualname(fn) -> str:
    return getattr(fn, "__qualname__", None) or type(fn).__name__


class Tracer:
    """Frame stack, per-(layer, name) aggregates, kept spans and counters."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.stack: list[float] = []         # child time of each open frame
        self.kept_stack: list[int] = []      # indices of open kept spans
        self.agg: dict[tuple[str, str], list] = {}   # [calls, total, self]
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.absent: dict[str, str] = {}     # hook -> reason
        self.root_busy_s = 0.0               # time under depth-0 frames
        self.flush_dir: str | None = None    # where forked workers report
        self.last_tx = None
        self.run_until_spans: list[tuple[float, float]] = []
        self._events: dict = {}              # callback code -> entry
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        """A forked sweep worker starts empty; it reports only its own work.
        Aggregates are zeroed in place because wrappers hold them."""
        self.stack.clear()
        self.kept_stack.clear()
        for entry in self.agg.values():
            entry[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.counts.clear()
        self.root_busy_s = 0.0

    # --------------------------------------------------------------- frames

    def entry(self, layer: str, name: str) -> list:
        entry = self.agg.get((layer, name))
        if entry is None:
            entry = self.agg[(layer, name)] = [0, 0, 0]
        return entry

    def _root_done(self, duration: float) -> None:
        self.root_busy_s += duration

    def _frame(self, fn, entry: list):
        """A function that runs `fn` as one frame counted in `entry`."""
        stack = self.stack
        root_done = self._root_done

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    root_done(duration)
        return traced

    def wrap(self, fn, layer: str | None = None, name: str | None = None,
             copy_meta: bool = True):
        """A function that runs `fn` as one frame of (layer, name)."""
        layer = layer or layer_of(fn)
        name = name or qualname(fn)
        traced = self._frame(fn, self.entry(layer, name))
        if name in KEPT_SPANS:
            traced = self._keep(traced, layer, name)
        return functools.wraps(fn)(traced) if copy_meta else traced

    def _keep(self, inner, layer: str, name: str):
        """Also record every call of `inner` as a span."""
        kept, spans, stack = self.kept_stack, self.spans, self.stack

        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "pid": os.getpid(),
                    "parent": kept[-1] if kept else None}
            kept.append(len(spans))
            spans.append(span)
            span["start"] = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                kept.pop()
                if not stack and self.flush_dir is not None \
                        and os.getpid() != self.owner_pid:
                    self.flush_worker()
        return traced

    def dispatch(self, action):
        """Wrap a callback the kernel will dispatch as an `event:` frame of
        the layer that defined it."""
        func = getattr(action, "__func__", action)
        code = getattr(func, "__code__", None)
        entry = self._events.get(code)
        if entry is None:
            entry = self.entry(layer_of(action), "event:" + qualname(action))
            if code is not None:
                self._events[code] = entry
        return self._frame(action, entry)

    # ---------------------------------------------------- forked sweep workers

    def flush_worker(self) -> None:
        """Write this worker's cumulative state; the parent merges it."""
        path = os.path.join(self.flush_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"agg": [[k[0], k[1], *v] for k, v in self.agg.items()],
                       "spans": self.spans, "counts": dict(self.counts),
                       "root_busy_s": self.root_busy_s}, fh)

    def merge_workers(self) -> dict:
        """Fold every worker file into this tracer; returns worker totals."""
        busy = 0.0
        workers = 0
        for entry in sorted(os.listdir(self.flush_dir)):
            if not entry.startswith("worker-"):
                continue
            with open(os.path.join(self.flush_dir, entry),
                      encoding="utf-8") as fh:
                state = json.load(fh)
            workers += 1
            busy += state["root_busy_s"]
            for layer, name, count, total, own in state["agg"]:
                mine = self.entry(layer, name)
                mine[0] += count
                mine[1] += total
                mine[2] += own
            self.counts.update(state["counts"])
            offset = len(self.spans)
            for span in state["spans"]:
                if span["parent"] is not None:
                    span["parent"] += offset
                self.spans.append(span)
        return {"workers": workers, "busy_s": busy}

    # ---------------------------------------------------------------- output

    def self_s(self, layer: str) -> float:
        return sum(v[2] for k, v in self.agg.items() if k[0] == layer)

    def total_s(self, name: str) -> float:
        return sum(v[1] for k, v in self.agg.items() if k[1] == name)

    def calls(self, *names: str) -> int:
        return sum(v[0] for k, v in self.agg.items() if k[1] in names)

    def event_calls(self, layer: str | None = None, part: str = "") -> int:
        return sum(v[0] for k, v in self.agg.items()
                   if k[1].startswith("event:") and part in k[1]
                   and layer in (None, k[0]))

    def dump(self, path: str, extra: dict) -> None:
        doc = {"spans": self.spans,
               "aggregates": [{"layer": k[0], "name": k[1], "calls": v[0],
                               "total_s": v[1], "self_s": v[2]}
                              for k, v in sorted(self.agg.items())],
               "counts": dict(sorted(self.counts.items())),
               "absent_hooks": self.absent, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


# ------------------------------------------------------------------- hooks

_UNSET = object()


def _signature_ok(fn, expected: tuple[str, ...]) -> bool:
    try:
        return tuple(inspect.signature(fn).parameters) == expected
    except (TypeError, ValueError):
        return False


class _Installer:
    """Applies hooks and remembers how to undo them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__.get(attr, _UNSET)))
        setattr(owner, attr, value)

    def _missing(self, key: str, original, expected) -> bool:
        if original is not None and _signature_ok(original, expected):
            return False
        self.tracer.absent[key] = ("missing" if original is None
                                   else "signature changed")
        return True

    def function(self, module: str, name: str, expected: tuple[str, ...],
                 make=None) -> None:
        """Wrap module-level `name` in every rplsim module that binds it."""
        original = getattr(sys.modules.get(module), name, None)
        if self._missing(f"{module.split('.')[-1]}.{name}", original,
                         expected):
            return
        wrapped = self.tracer.wrap(make(original) if make else original,
                                   layer_of(original), name)
        for mod_name, other in list(sys.modules.items()):
            if (mod_name == "rplsim" or mod_name.startswith("rplsim.")) \
                    and other.__dict__.get(name) is original:
                self._set(other, name, wrapped)

    def method(self, module: str, cls_name: str, name: str,
               expected: tuple[str, ...], make=None) -> None:
        cls = getattr(sys.modules.get(module), cls_name, None)
        original = None if cls is None else cls.__dict__.get(name)
        if self._missing(f"{module.split('.')[-1]}.{cls_name}.{name}",
                         original, expected):
            return
        self._set(cls, name, self.tracer.wrap(
            make(original) if make else original, layer_of(original),
            f"{cls_name}.{name}"))

    def restore(self) -> None:
        for owner, attr, value in reversed(self.undo):
            if value is _UNSET:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self.undo.clear()


def install(tracer: Tracer):
    """Install every hook; returns a function that removes them."""
    import rplsim  # noqa: F401  (loads every layer but cli)
    import rplsim.cli  # noqa: F401

    ins = _Installer(tracer)
    counts = tracer.counts
    wrap = tracer.wrap

    # ---- engine: run_until is the kernel's span; every scheduled callback
    # is wrapped so its time is charged to the layer that defined it.
    def run_until(orig):
        def hooked(self, end_time):
            start = perf_counter()
            try:
                return orig(self, end_time)
            finally:
                tracer.run_until_spans.append((start, perf_counter()))
        return hooked

    def schedule(orig):
        dispatch = tracer.dispatch

        def hooked(self, fire_time, kind, target, action):
            return orig(self, fire_time, kind, target, dispatch(action))
        return hooked

    def cancel(orig):
        def hooked(self):
            if not self.cancelled:
                counts["engine.cancelled"] += 1
            return orig(self)
        return hooked

    ins.method("rplsim.engine", "Simulator", "run_until", ("self", "end_time"),
               make=run_until)
    ins.method("rplsim.engine", "Simulator", "schedule",
               ("self", "fire_time", "kind", "target", "action"),
               make=schedule)
    ins.method("rplsim.engine", "Event", "cancel", ("self",), make=cancel)

    # ---- medium
    def deliver(orig):
        def hooked(self, tx, receiver, stream):
            outcome = orig(self, tx, receiver, stream)
            if tx is not tracer.last_tx:     # one tx's receivers come in a row
                tracer.last_tx = tx
                counts[f"medium.frames_tx.{tx.frame.kind.value}"] += 1
            counts["medium.rx." + OUTCOME_KEYS.get(outcome.name,
                                                   outcome.name)] += 1
            return outcome
        return hooked

    def unicast_with_ack(orig):
        def hooked(self, sender, receiver, payload, on_complete):
            done = wrap(on_complete, copy_meta=False)

            def completed(success, attempts, data_delivered):
                counts["medium.unicasts"] += 1
                counts["medium.unicast_attempts"] += attempts
                counts["medium.unicast_successes"] += bool(success)
                counts["medium.ack_only_losses"] += (not success
                                                     and bool(data_delivered))
                return done(success, attempts, data_delivered)
            return orig(self, sender, receiver, payload, completed)
        return hooked

    def set_receiver(orig):
        def hooked(self, node_id, callback):
            return orig(self, node_id, wrap(callback))
        return hooked

    ins.method("rplsim.medium", "Medium", "deliver",
               ("self", "tx", "receiver", "stream"), make=deliver)
    ins.method("rplsim.medium", "Medium", "unicast_with_ack",
               ("self", "sender", "receiver", "payload", "on_complete"),
               make=unicast_with_ack)
    ins.method("rplsim.medium", "Medium", "set_receiver",
               ("self", "node_id", "callback"), make=set_receiver)
    ins.method("rplsim.medium", "Medium", "broadcast",
               ("self", "sender", "kind", "payload", "on_done"))

    # ---- rpl: calls of on_dio, on_data and app_generate are the counts
    ins.method("rplsim.rpl", "Node", "start", ("self",))
    ins.method("rplsim.rpl", "Node", "on_dio", ("self", "dio"))
    ins.method("rplsim.rpl", "Node", "on_dis", ("self", "from_id"))
    ins.method("rplsim.rpl", "Node", "on_data", ("self", "packet", "from_id"))
    ins.method("rplsim.rpl", "Node", "app_generate", ("self",))
    _install_parent_switch_counter(ins, counts)

    # ---- objective (patched where rplsim.rpl binds the names, too)
    def select(orig):
        def hooked(candidates, current=None):
            counts["objective.candidates"] += len(candidates)
            return orig(candidates, current)
        return hooked

    for name in ("of0_select_parent", "mrhof_select_parent"):
        ins.function("rplsim.objective", name, ("candidates", "current"),
                     make=select)
    ins.function("rplsim.objective", "etx_update",
                 ("stats", "attempts_used", "success", "max_transmissions",
                  "now"))
    ins.function("rplsim.objective", "of0_rank", ("parent_advertised_rank",))
    ins.function("rplsim.objective", "mrhof_rank",
                 ("parent_advertised_rank", "path_cost"))
    ins.function("rplsim.objective", "mrhof_path_cost",
                 ("parent_cost", "link_etx"))

    # ---- telemetry
    def emit(orig):
        def hooked(self, record):
            if self.enabled:
                counts["telemetry.trace_records"] += 1
            return orig(self, record)
        return hooked

    def write_jsonl(orig):
        def hooked(self, path):
            result = orig(self, path)
            counts["telemetry.trace_bytes"] += os.path.getsize(path)
            return result
        return hooked

    ins.method("rplsim.telemetry", "EnergyLedger", "charge",
               ("self", "state", "duration_us"))
    ins.method("rplsim.telemetry", "EnergyLedger", "finalize",
               ("self", "elapsed_us"))
    ins.method("rplsim.telemetry", "MetricsReport", "record_packet",
               ("self", "traffic_class", "outcome", "hops", "latency_us"))
    ins.method("rplsim.telemetry", "TraceRecorder", "emit", ("self", "record"),
               make=emit)
    ins.method("rplsim.telemetry", "TraceRecorder", "write_jsonl",
               ("self", "path"), make=write_jsonl)

    # ---- scenario: each connectivity test is one random layout drawn; a
    # grid is one layout
    ins.function("rplsim.scenario", "scenario_from_dict", ("raw",))
    ins.function("rplsim.scenario", "generate_topology", ("cfg", "stream"))
    ins.function("rplsim.scenario", "unit_disk_connected",
                 ("positions", "tx_range"))
    ins.function("rplsim.scenario", "generate_grid_topology", ("cfg",))
    ins.function("rplsim.scenario", "generate_random_topology",
                 ("cfg", "stream"))
    ins.function("rplsim.scenario", "assign_traffic_classes",
                 ("sensor_ids", "enabled"))
    ins.function("rplsim.scenario", "next_send_time",
                 ("traffic_class", "now_us", "stream"))

    # ---- simulate: build is run_scenario's start up to run_until, and
    # finalize is run_until's end up to run_scenario's return.
    def run_scenario(orig):
        def hooked(*args, **kwargs):
            outer = tracer.run_until_spans
            tracer.run_until_spans = []
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                inner, tracer.run_until_spans = tracer.run_until_spans, outer
                if inner:
                    counts["simulate.build_s"] += inner[0][0] - start
                    counts["simulate.finalize_s"] += end - inner[-1][1]
        return hooked

    ins.function("rplsim.simulate", "run_scenario",
                 ("cfg", "positions", "link_rx", "trace"), make=run_scenario)
    # RunResult's methods stay unwrapped: the benchmark's own output checks
    # call depth(), and the power sums run inside result_to_row (cli).

    # ---- cli
    ins.function("rplsim.cli", "result_to_row", ("result",))
    ins.function("rplsim.cli", "append_rows", ("path", "rows"))
    ins.function("rplsim.cli", "main", ("argv",))
    ins.function("rplsim.cli", "cmd_sweep", ("args",))
    ins.function("rplsim.cli", "load_sweep", ("path",))
    ins.function("rplsim.cli", "sweep_tasks", ("spec",))
    ins.function("rplsim.cli", "summarize", ("rows",))
    return ins.restore


def _install_parent_switch_counter(ins: _Installer, counts: Counter) -> None:
    """Count parent switches with a property over Node.preferred_parent.

    A switch is a change from one parent to a different one; detaching
    (to None) and the first attach are not switches.
    """
    node_cls = getattr(sys.modules.get("rplsim.rpl"), "Node", None)
    if node_cls is None or "preferred_parent" in node_cls.__dict__ \
            or hasattr(node_cls, "__slots__"):
        ins.tracer.absent["rpl.parent_switches"] = "Node layout changed"
        return

    def get(node):
        return node.__dict__["preferred_parent"]

    def put(node, value):
        old = node.__dict__.get("preferred_parent")
        if old is not None and value is not None and value != old:
            counts["rpl.parent_switches"] += 1
        node.__dict__["preferred_parent"] = value

    ins._set(node_cls, "preferred_parent", property(get, put))


# ----------------------------------------------------------------- metrics

PER_LAYER_UNITS = {
    "engine.self_s": "s", "engine.events": "count",
    "engine.scheduled": "count", "engine.cancelled": "count",
    "engine.cancelled_share": "ratio", "engine.us_per_event": "us",
    "medium.self_s": "s",
    "medium.frames_tx.dio": "count", "medium.frames_tx.dis": "count",
    "medium.frames_tx.data": "count", "medium.frames_tx.ack": "count",
    "medium.rx.delivered": "count", "medium.rx.lost_random": "count",
    "medium.rx.lost_collision": "count",
    "medium.attempts_per_unicast": "count/unicast",
    "medium.unicast_success_share": "ratio",
    "medium.ack_only_losses": "count", "medium.csma_deferrals": "count",
    "rpl.self_s": "s", "rpl.dio_rx": "count", "rpl.data_rx": "count",
    "rpl.app_sends": "count", "rpl.parent_switches": "count",
    "objective.self_s": "s", "objective.select_calls": "count",
    "objective.candidates_per_select": "count/select",
    "objective.etx_updates": "count",
    "telemetry.self_s": "s", "telemetry.ledger_charges": "count",
    "telemetry.trace_records": "count", "telemetry.trace_write_s": "s",
    "telemetry.trace_bytes": "B",
    "scenario.self_s": "s", "scenario.validate_s": "s",
    "scenario.topology_s": "s", "scenario.topology_attempts": "count",
    "simulate.self_s": "s", "simulate.build_s": "s",
    "simulate.finalize_s": "s",
    "cli.self_s": "s", "cli.row_s": "s", "cli.csv_write_s": "s",
    "cli.sweep_busy_share": "ratio",
    "bench.trace_overhead_share": "ratio",
}

SELF_TIMES = [f"{layer}.self_s" for layer in LAYERS]

# Metrics that would be wrong when a hook could not be installed.  A hook
# not listed here only blurs its own layer's self time.
DEPENDS = {
    "engine.Simulator.run_until": ["engine.self_s", "engine.us_per_event",
                                   "simulate.build_s", "simulate.finalize_s"],
    "engine.Simulator.schedule": SELF_TIMES + [
        "engine.events", "engine.scheduled", "engine.cancelled_share",
        "engine.us_per_event", "medium.csma_deferrals"],
    "engine.Event.cancel": ["engine.cancelled", "engine.cancelled_share"],
    "medium.Medium.deliver": [
        "medium.frames_tx.dio", "medium.frames_tx.dis",
        "medium.frames_tx.data", "medium.frames_tx.ack",
        "medium.rx.delivered", "medium.rx.lost_random",
        "medium.rx.lost_collision", "medium.csma_deferrals"],
    "medium.Medium.unicast_with_ack": ["medium.attempts_per_unicast",
                                       "medium.unicast_success_share",
                                       "medium.ack_only_losses"],
    "medium.Medium.set_receiver": ["medium.self_s", "rpl.self_s"],
    "medium.sense_callbacks": ["medium.csma_deferrals"],
    "rpl.Node.on_dio": ["rpl.dio_rx"],
    "rpl.Node.on_data": ["rpl.data_rx"],
    "rpl.Node.app_generate": ["rpl.app_sends"],
    "rpl.parent_switches": ["rpl.parent_switches"],
    "objective.of0_select_parent": ["objective.select_calls",
                                    "objective.candidates_per_select"],
    "objective.mrhof_select_parent": ["objective.select_calls",
                                      "objective.candidates_per_select"],
    "objective.etx_update": ["objective.etx_updates"],
    "telemetry.EnergyLedger.charge": ["telemetry.ledger_charges"],
    "telemetry.TraceRecorder.emit": ["telemetry.trace_records"],
    "telemetry.TraceRecorder.write_jsonl": ["telemetry.trace_write_s",
                                            "telemetry.trace_bytes"],
    "scenario.scenario_from_dict": ["scenario.validate_s"],
    "scenario.generate_topology": ["scenario.topology_s"],
    "scenario.unit_disk_connected": ["scenario.topology_attempts"],
    "scenario.generate_grid_topology": ["scenario.topology_attempts"],
    "simulate.run_scenario": ["simulate.build_s", "simulate.finalize_s"],
    "cli.result_to_row": ["cli.row_s"],
    "cli.append_rows": ["cli.csv_write_s"],
    "cli.cmd_sweep": ["cli.sweep_busy_share"],
    # a sweep's runs happen in forked workers; without their reports only
    # the CLI's own process is seen
    "sweep.workers": [m for m in PER_LAYER_UNITS
                      if m not in ("cli.self_s", "cli.csv_write_s",
                                   "bench.trace_overhead_share")],
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, overhead_share: float,
                  sweep_parallel: int = 0, workers: dict | None = None
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced iteration, and the absent ones with
    the reason.  `workers` is merge_workers()'s result for a sweep."""
    c = tracer.counts
    events = tracer.event_calls()
    sense = tracer.event_calls("medium", "_begin_csma")
    if sense == 0 and c["medium.frames_tx.data"] > 0:
        tracer.absent["medium.sense_callbacks"] = "no CSMA sense callback seen"
    if workers is not None and workers["workers"] == 0:
        tracer.absent["sweep.workers"] = "no traced sweep worker reported"
    self_s = {layer: tracer.self_s(layer) for layer in LAYERS}
    scheduled = tracer.calls("Simulator.schedule")
    selects = tracer.calls("of0_select_parent", "mrhof_select_parent")
    sensed = sum(c[f"medium.frames_tx.{k}"] for k in ("dio", "dis", "data"))
    values = {
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        "engine.events": events,
        "engine.scheduled": scheduled,
        "engine.cancelled": c["engine.cancelled"],
        "engine.cancelled_share": _ratio(c["engine.cancelled"], scheduled),
        "engine.us_per_event": _ratio(self_s["engine"] * 1e6, events),
        **{f"medium.frames_tx.{k}": c[f"medium.frames_tx.{k}"]
           for k in ("dio", "dis", "data", "ack")},
        **{f"medium.rx.{k}": c[f"medium.rx.{k}"]
           for k in ("delivered", "lost_random", "lost_collision")},
        "medium.attempts_per_unicast": _ratio(c["medium.unicast_attempts"],
                                              c["medium.unicasts"]),
        "medium.unicast_success_share": _ratio(c["medium.unicast_successes"],
                                               c["medium.unicasts"]),
        "medium.ack_only_losses": c["medium.ack_only_losses"],
        "medium.csma_deferrals": sense - sensed,
        "rpl.dio_rx": tracer.calls("Node.on_dio"),
        "rpl.data_rx": tracer.calls("Node.on_data"),
        "rpl.app_sends": tracer.calls("Node.app_generate"),
        "rpl.parent_switches": c["rpl.parent_switches"],
        "objective.select_calls": selects,
        "objective.candidates_per_select": _ratio(c["objective.candidates"],
                                                  selects),
        "objective.etx_updates": tracer.calls("etx_update"),
        "telemetry.ledger_charges": tracer.calls("EnergyLedger.charge"),
        "telemetry.trace_records": c["telemetry.trace_records"],
        "telemetry.trace_write_s": tracer.total_s("TraceRecorder.write_jsonl"),
        "telemetry.trace_bytes": c["telemetry.trace_bytes"],
        "scenario.validate_s": tracer.total_s("scenario_from_dict"),
        "scenario.topology_s": tracer.total_s("generate_topology"),
        "scenario.topology_attempts": tracer.calls("unit_disk_connected",
                                                   "generate_grid_topology"),
        "simulate.build_s": c["simulate.build_s"],
        "simulate.finalize_s": c["simulate.finalize_s"],
        "cli.row_s": tracer.total_s("result_to_row"),
        "cli.csv_write_s": tracer.total_s("append_rows"),
        "cli.sweep_busy_share": _ratio(
            workers["busy_s"] if workers else 0.0,
            sweep_parallel * tracer.total_s("cmd_sweep")),
        "bench.trace_overhead_share": overhead_share,
    }
    absent = {}
    for hook, reason in tracer.absent.items():
        for metric in DEPENDS.get(hook, [f"{hook.split('.')[0]}.self_s"]):
            absent.setdefault(metric, f"{hook}: {reason}")
    return {k: v for k, v in values.items() if k not in absent}, absent
