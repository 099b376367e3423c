"""Spans and per-call aggregates for the benchmark's traced run.

The program itself is not instrumented.  `instrument()` wraps gdserve's
public functions at every name they are looked up by (the defining module
and the modules that import them by name), and restores them afterwards.

Records are kept in memory and appended to a JSONL file when a traced round
ends.  Every record has ``run`` (the round's run id), ``id``, ``name``,
``parent`` (the id of the enclosing record, or null), ``start`` and ``end``
(perf_counter seconds).  Two kinds exist:

* a span per call of a coarse layer (load, plan, simulate, report, CLI
  command);
* an aggregate per (parent, name) for functions called per impression or
  per solver step (targeting, kernels, feedback, per-impression serving,
  impression parsing), which adds ``calls`` and ``total_s``; its ``start``
  and ``end`` are those of its first and last call.  Aggregates nest like
  spans, so the time of a kernel called inside `serve_hwm` is charged to
  `serve_hwm`, not to its caller.

A record's self time is its duration (``total_s`` for an aggregate) minus
the durations of its children.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

# (defining module, function, other modules that import it by name)
SPANS = [
    ("model", "load_supply", ()),
    ("model", "load_contracts", ()),
    ("model", "build_graph", ()),
    ("simulate", "load_impressions", ()),
    ("simulate", "run_simulation", ()),
    ("simulate", "write_report", ()),
    ("metrics", "build_smoothness", ()),
    ("hwm", "generate_hwm_plan", ("simulate",)),
    ("dual", "solve_dual_offline", ("simulate",)),
    ("cli", "cmd_plan", ()),
    ("cli", "cmd_serve", ()),
]
AGGREGATES = [
    ("targeting", "eligible", ()),
    ("kernels", "solve_rate", ()),
    ("kernels", "effective_probs", ("simulate",)),
    ("kernels", "dual_probs", ()),
    ("kernels", "draw_index", ("simulate",)),
    ("feedback", "apply_feedback", ("simulate",)),
    ("hwm", "serve_hwm", ()),
]
ITERATORS = [
    ("simulate", "iter_impressions", ()),
]

PLANNERS = ("hwm.generate_hwm_plan", "dual.solve_dual_offline")
KERNELS = ("kernels.solve_rate", "kernels.effective_probs",
           "kernels.dual_probs", "kernels.draw_index")
PROBS_KERNELS = ("kernels.effective_probs", "kernels.dual_probs")
OPERATIONS = ("simulate.run_simulation", "cli.cmd_serve")
GRAPH_LOADS = ("model.load_supply", "model.load_contracts", "model.build_graph")


class Tracer:
    """Collects the records of one traced round; `run_id` tags every record."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: List[dict] = []
        self._stack: List[Optional[int]] = [None]
        self._aggs: Dict[tuple, dict] = {}

    def _new(self, name: str, **fields) -> dict:
        rec = {"run": self.run_id, "id": len(self.records), "name": name,
               "parent": self._stack[-1], "start": None, "end": None, **fields}
        self.records.append(rec)
        return rec

    def _agg(self, name: str) -> dict:
        key = (self._stack[-1], name)
        rec = self._aggs.get(key)
        if rec is None:
            rec = self._aggs[key] = self._new(name, calls=0, total_s=0.0)
        return rec

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            rec = self._new(name)
            self._stack.append(rec["id"])
            rec["start"] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self._stack.pop()
        return wrapper

    def aggregate(self, name: str, fn):
        records = self.records

        def wrapper(*args, **kwargs):
            top = self._stack[-1]
            if top is not None and records[top]["name"] == name:
                return fn(*args, **kwargs)      # recursion: count the outer call only
            rec = self._agg(name)
            self._stack.append(rec["id"])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec["total_s"] += t1 - t0
                rec["calls"] += 1
                if rec["start"] is None:
                    rec["start"] = t0
                rec["end"] = t1
                self._stack.pop()
        return wrapper

    def iterator(self, name: str, fn):
        """Wrap a generator function; producing each item is one call."""
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                rec = self._agg(name)
                self._stack.append(rec["id"])
                t0 = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    rec["total_s"] += t1 - t0
                    if rec["start"] is None:
                        rec["start"] = t0
                    rec["end"] = t1
                    self._stack.pop()
                rec["calls"] += 1
                yield item
        return wrapper

    def write_jsonl(self, path: str) -> None:
        """Append this round's records to a JSONL file."""
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch gdserve's layer functions for the duration of the block.

    A name missing from a module (a later refactor may drop a by-name
    import) is skipped; its layer then reports no calls.
    """
    saved = []
    try:
        for table, wrap in ((SPANS, tracer.span), (AGGREGATES, tracer.aggregate),
                            (ITERATORS, tracer.iterator)):
            for home, func, importers in table:
                home_mod = importlib.import_module(f"gdserve.{home}")
                if not hasattr(home_mod, func):
                    continue
                wrapped = wrap(f"{home}.{func}", getattr(home_mod, func))
                for modname in (home, *importers):
                    mod = importlib.import_module(f"gdserve.{modname}")
                    if hasattr(mod, func):
                        saved.append((mod, func, getattr(mod, func)))
                        setattr(mod, func, wrapped)
        yield
    finally:
        for mod, func, original in reversed(saved):
            setattr(mod, func, original)


def duration(rec: dict) -> float:
    return rec["total_s"] if "total_s" in rec else rec["end"] - rec["start"]


def nearest_rank(values: List[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * pct // 100))     # ceil(n * pct / 100)
    return ordered[int(k) - 1]


# Declared times that hold on every workload: each is the sum of module-named
# times of which a round runs only one (one planner, one operation).
ACROSS_WORKLOADS = {
    "plan.replan_p50_ms": ("hwm.replan_p50_ms", "dual.replan_p50_ms"),
    "op.self_s": ("simulate.self_s", "cli.serve_self_s"),
}


def layer_metrics(records: List[dict], impressions: int) -> Dict[str, float]:
    """Per-layer numbers of one traced round, derived from its records alone.

    Returns every layer named by module and function (0 where the layer
    does not run on the workload), kernel time split into planning and
    serving, and the sums of `ACROSS_WORKLOADS`; those last two are
    non-zero on every workload.
    """
    by_id = {r["id"]: r for r in records}
    child_time: Dict[int, float] = {}
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + duration(r)

    def self_time(r: dict) -> float:
        return duration(r) - child_time.get(r["id"], 0.0)

    def under(r: dict, names) -> bool:
        parent = r["parent"]
        while parent is not None:
            if by_id[parent]["name"] in names:
                return True
            parent = by_id[parent]["parent"]
        return False

    def named(*names: str) -> List[dict]:
        return [r for r in records if r["name"] in names]

    def calls(*names: str) -> int:
        return sum(r.get("calls", 1) for r in named(*names))

    def total(*names: str) -> float:
        return sum(duration(r) for r in named(*names))

    def replans_ms(name: str) -> List[float]:
        return [1000.0 * duration(r) for r in named(name)]

    hwm_ms, dual_ms = replans_ms("hwm.generate_hwm_plan"), replans_ms("dual.solve_dual_offline")
    # Eligibility while serving; graph building and validation are set-up.
    eligible = [r for r in named("targeting.eligible") if under(r, OPERATIONS)]
    eligible_calls = sum(r["calls"] for r in eligible)
    kernel_recs = named(*KERNELS)
    # Probability evaluations outside planning: the probs-cache misses.
    serve_probs = sum(r["calls"] for r in kernel_recs
                      if r["name"] in PROBS_KERNELS and not under(r, PLANNERS))
    metrics = {
        "model.load_graph_s": total(*GRAPH_LOADS),
        "simulate.load_impressions_s": total("simulate.iter_impressions"),
        "targeting.eligible_calls": eligible_calls,
        "targeting.eligible_s": sum(r["total_s"] for r in eligible),
        "targeting.eligible_per_imp": eligible_calls / impressions,
        "hwm.generate_hwm_plan_calls": len(hwm_ms),
        "hwm.replan_p50_ms": nearest_rank(hwm_ms, 50),
        "hwm.replan_p88_ms": nearest_rank(hwm_ms, 88),
        "dual.solve_dual_offline_calls": len(dual_ms),
        "dual.solve_s": sum(dual_ms) / 1000.0,
        "dual.replan_p50_ms": nearest_rank(dual_ms, 50),
        "dual.replan_max_ms": max(dual_ms, default=0.0),
        **{f"{k}_calls": calls(k) for k in KERNELS},
        **{f"{k}_s": total(k) for k in KERNELS},
        "kernels.effective_probs_per_imp": serve_probs / impressions,
        "kernels.plan_s": sum(r["total_s"] for r in kernel_recs if under(r, PLANNERS)),
        "kernels.serve_s": sum(r["total_s"] for r in kernel_recs if not under(r, PLANNERS)),
        "feedback.apply_feedback_calls": calls("feedback.apply_feedback"),
        "feedback.apply_feedback_s": total("feedback.apply_feedback"),
        "hwm.serve_hwm_calls": calls("hwm.serve_hwm"),
        "hwm.serve_hwm_s": total("hwm.serve_hwm"),
        "cli.serve_self_s": sum(self_time(r) for r in named("cli.cmd_serve")),
        "simulate.run_simulation_s": total("simulate.run_simulation"),
        "simulate.self_s": sum(self_time(r) for r in named("simulate.run_simulation")),
        "simulate.write_report_s": total("simulate.write_report"),
        "metrics.build_smoothness_s": total("metrics.build_smoothness"),
    }
    for name, parts in ACROSS_WORKLOADS.items():
        metrics[name] = sum(metrics[p] for p in parts)
    return metrics
