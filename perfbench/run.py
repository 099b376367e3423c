#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gdserve on three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload hwm-sampled-2h --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes
    python3 perfbench/run.py --smoke                 # small inputs, checks names

Each run generates its inputs from `--seed` (see inputs.py), then repeats
*rounds* of the workload for about `--seconds` seconds, all in this one
process, single-threaded, with the whole input given at once.  A round is

* simulate workloads: load supply, contracts and impressions and build the
  graph (set-up), then `run_simulation` plus `write_report` (the operation);
* serve workload: `gdserve plan --algorithm hwm` (set-up), then
  `gdserve serve` over the impression file (the operation).

The DUAL workload also times one `gdserve plan --algorithm dual` on the
full forecast graph (`plan_s`, in the result record).

With `--trace 0` the end-to-end metrics cover the run's rounds: `imp_per_s`
is the impressions of all rounds over their summed operation time, and
`setup_s` the set-up time of all set-ups over their number; each round is
followed by further set-ups until its set-up time reaches
`SETUP_PER_ROUND_S`, so set-ups sample the whole run.
With `--trace 1` untraced and traced rounds alternate; set-up and operation
of the traced ones run under spans.py, the per-layer metrics are medians
over them, and `trace.overhead_frac` compares the two kinds.

Outputs are checked (see `check_*`).  A failed check or an exception counts
every impression offered in the run as failed.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; a
fuller record (environment, seed, input and output digests, every metric
under its own name, every sample) goes to `.perfbench/results/`, and the
spans of traced rounds to `.perfbench/spans/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr
from io import StringIO
from dataclasses import dataclass
from datetime import datetime
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

# A metric's unit follows from its name: the first matching suffix.
UNIT_SUFFIXES = (("imp_per_s", "imp/s"), ("_per_imp", "calls/imp"), ("_calls", "count"),
                 ("_frac", "fraction"), ("_mb", "MB"), ("_abs", "pp"), ("_ms", "ms"),
                 ("_s", "s"))
SETUP_PER_ROUND_S = 1.0  # set-up time of each round, at least


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix))


def declared_end_to_end(metrics: dict) -> dict:
    """The end-to-end metrics under the names BENCHMARK.json declares, which
    every workload shares; `delivered_frac` is 1 - `underdelivery_frac`
    because every contract's delivery is checked not to exceed its booking."""
    return {"setup_s": metrics["setup_s"],
            "imp_per_s": metrics.get("sim_imp_per_s", metrics.get("serve_imp_per_s")),
            "delivered_frac": 1.0 - metrics["underdelivery_frac"],
            "peak_rss_mb": metrics["peak_rss_mb"]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str
    serve: bool = False             # gdserve serve instead of run_simulation
    mode: str = "expected"
    reopt_hours: float = 24.0
    forecast: float = 1.0
    feedback: bool = False
    shards: int = 1
    time_plan: bool = False         # record `plan_s`, one `gdserve plan` per run


WORKLOADS = {w.name: w for w in (
    Workload("hwm-sampled-2h",
             "HWM simulate, sampled, 2 h re-plans, 2x forecast, feedback: "
             "serving-side work (eligibility, per-impression draw, feedback)",
             "hwm", mode="sampled", reopt_hours=2.0, forecast=2.0, feedback=True),
    Workload("dual-expected-24h",
             "DUAL simulate, expected mode, 2 shards, 24 h re-plans, perfect "
             "forecast: planner work (dual solve); no draw path",
             "dual", shards=2, time_plan=True),
    Workload("serve-hwm-cli",
             "gdserve plan then gdserve serve over the impression file: JSONL "
             "I/O and per-impression probabilities; eligibility cached once",
             "hwm", serve=True),
)}


class CheckFailed(Exception):
    pass


def import_gdserve():
    """Import gdserve from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gdserve", "__init__.py")):
        raise ImportError(f"no gdserve sources under {src}")
    sys.path.insert(0, src)
    import gdserve
    if not os.path.abspath(gdserve.__file__).startswith(src + os.sep):
        raise ImportError(f"gdserve imported from {gdserve.__file__}, not {src}")
    return gdserve


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def prepare_inputs(seed: int, smoke: bool, out: str) -> tuple:
    """Generate the inputs for a seed under `out`; returns (dir, manifest).

    Generation runs in a child process, so it is outside every metric,
    peak memory included.
    """
    path = os.path.join(out, "inputs")
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--seed", str(seed),
           "--out", path] + (["--smoke"] if smoke else [])
    subprocess.run(cmd, check=True, timeout=120)
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
        return path, json.load(fh)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def _timed_cli(argv: List[str]) -> float:
    """Wall time of `gdserve <argv>` called in-process; its diagnostics on
    stderr are kept out of the benchmark's output unless it fails."""
    from gdserve import cli
    err = StringIO()
    with redirect_stderr(err):
        t0 = perf_counter()
        rc = cli.main(argv)
        elapsed = perf_counter() - t0
    if rc != 0:
        raise CheckFailed(f"gdserve {argv[0]} exited {rc}: {err.getvalue()[-500:]}")
    return elapsed


class Runner:
    """Runs rounds of one workload on one input set and checks their output."""

    def __init__(self, wl: Workload, inp: str, manifest: dict, seed: int, out: str):
        self.wl, self.manifest, self.seed, self.out = wl, manifest, seed, out
        self.supply = os.path.join(inp, "supply.jsonl")
        self.contracts = os.path.join(inp, "contracts.jsonl")
        self.impressions = os.path.join(inp, "impressions.jsonl")
        self.plan_path = os.path.join(out, "plan.jsonl")
        self.output_digest: Optional[str] = None
        self.quality: Dict[str, Optional[float]] = {}

    def load(self):
        from gdserve import model, simulate
        t0 = perf_counter()
        graph = model.build_graph(model.load_supply(self.supply),
                                  model.load_contracts(self.contracts))
        impressions = simulate.load_impressions(self.impressions)
        return perf_counter() - t0, graph, impressions

    def plan(self) -> float:
        """`gdserve plan` on the full forecast graph; returns its wall time."""
        return _timed_cli(["plan", "--algorithm", self.wl.algorithm,
                           "--supply", self.supply, "--contracts", self.contracts,
                           "--out", self.plan_path])

    def setup_only(self) -> float:
        if self.wl.serve:
            return self.plan()
        elapsed, _graph, _impressions = self.load()
        return elapsed

    def run_round(self, tracer: Optional[spans.Tracer]) -> dict:
        """Set-up and operation, under `tracer` if one is given.  Returns the
        round's timings and impressions offered; output checks come after."""
        gc.collect()
        with spans.instrument(tracer) if tracer else nullcontext():
            if self.wl.serve:
                setup_s = self.plan()
                op_s, output = self._serve()
                offered = self.manifest["impressions"]
            else:
                setup_s, graph, impressions = self.load()
                op_s, report, output = self._simulate(graph, impressions)
                offered = report.impressions_in_window
                del graph, impressions
        if self.output_digest is None:
            if self.wl.serve:
                self.check_decisions(output)
            else:
                self.check_simulation(report)
        digest = inputs.file_digest(output)
        if self.output_digest is None:
            self.output_digest = digest
        elif digest != self.output_digest:
            raise CheckFailed("output differs from the run's first round "
                              f"({digest[:12]} != {self.output_digest[:12]})")
        return {"setups": [setup_s], "op_s": op_s, "offered": offered,
                "wall_s": setup_s + op_s}

    def _simulate(self, graph, impressions):
        from gdserve import FeedbackConfig, simulate
        wl = self.wl
        cfg = simulate.SimulationConfig(
            algorithm=wl.algorithm, mode=wl.mode, reopt_period_hours=wl.reopt_hours,
            forecast_error_multiplier=wl.forecast, shards=wl.shards, seed=self.seed,
            feedback=FeedbackConfig() if wl.feedback else None)
        report_path = os.path.join(self.out, "report.json")
        t0 = perf_counter()
        report = simulate.run_simulation(graph, impressions, cfg)
        simulate.write_report(report, report_path,
                              os.path.join(self.out, "delivery_timeseries.csv"))
        return perf_counter() - t0, report, report_path

    def _serve(self):
        decisions = os.path.join(self.out, "decisions.jsonl")
        return _timed_cli(["serve", "--plan", self.plan_path, "--contracts", self.contracts,
                           "--impressions", self.impressions, "--out", decisions,
                           "--seed", str(self.seed)]), decisions

    # -- output checks (first round; later rounds must match it byte for byte)

    def check_simulation(self, report) -> None:
        """`delivered <= booked` for every contract; every in-window
        impression generated was offered."""
        for o in report.outcomes:
            if not o.delivered <= o.booked:
                raise CheckFailed(f"{o.contract_id}: delivered {o.delivered} "
                                  f"exceeds booked {o.booked}")
        if report.impressions_in_window != self.manifest["in_window"]:
            raise CheckFailed(f"impressions_in_window {report.impressions_in_window} "
                              f"!= generated {self.manifest['in_window']}")
        sigma75 = report.smoothness["sigma75_finished"]
        self.quality = {"underdelivery_frac": report.total_underdelivery_frac,
                        "sigma75_abs": None if sigma75 is None else abs(sigma75)}

    def check_decisions(self, path: str) -> None:
        """One decision per impression, in order; probabilities non-negative
        and summing to at most 1 + 1e-9; a chosen contract has p > 0 in
        `probs`, is in flight, and is eligible by the graph's edges for the
        impression's supply node (by its targeting, for an off-graph one)."""
        contracts = {cid: dict(c, start=datetime.fromisoformat(c["start"]),
                               end=datetime.fromisoformat(c["end"]))
                     for cid, c in self.manifest["contracts"].items()}
        edges: Dict[tuple, set] = {}
        with open(self.supply, encoding="utf-8") as fh:
            for line in fh:
                attrs = json.loads(line)["attributes"]
                edges[inputs.attrs_key(attrs)] = {
                    cid for cid, c in contracts.items()
                    if inputs.matches(attrs, c["targeting"])}
        delivered = {cid: 0 for cid in contracts}
        lineno = 0
        with open(self.impressions, encoding="utf-8") as imps, \
                open(path, encoding="utf-8") as decs:
            for lineno, (imp_line, dec_line) in enumerate(zip(imps, decs), 1):
                imp, dec = json.loads(imp_line), json.loads(dec_line)
                where = f"decision {lineno}"
                if dec["impression_id"] != imp["id"]:
                    raise CheckFailed(f"{where}: id {dec['impression_id']} != {imp['id']}")
                probs = dict(dec["probs"])
                if any(p < 0 for p in probs.values()) or sum(probs.values()) > 1 + 1e-9:
                    raise CheckFailed(f"{where}: invalid probabilities {dec['probs']}")
                chosen = dec["chosen"]
                if chosen is None:
                    continue
                c = contracts.get(chosen)
                if c is None or probs.get(chosen, 0.0) <= 0.0:
                    raise CheckFailed(f"{where}: chosen {chosen} not drawn from probs")
                attrs = imp["attributes"]
                allowed = edges.get(inputs.attrs_key(attrs))
                if (chosen not in allowed if allowed is not None
                        else not inputs.matches(attrs, c["targeting"])):
                    raise CheckFailed(f"{where}: {chosen} is not eligible")
                if not c["start"] <= datetime.fromisoformat(imp["ts"]) < c["end"]:
                    raise CheckFailed(f"{where}: {chosen} is not in flight")
                delivered[chosen] += 1
            if lineno != self.manifest["impressions"] or decs.readline():
                raise CheckFailed(f"{lineno} decisions for "
                                  f"{self.manifest['impressions']} impressions")
        booked = sum(c["demand"] for c in contracts.values())
        served = sum(min(c["demand"], delivered[cid]) for cid, c in contracts.items())
        self.quality = {"underdelivery_frac": 1.0 - served / booked}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(runner: Runner, seconds: float, traced: bool, run_id: str,
            spans_path: str) -> dict:
    """Repeat rounds for about `seconds`; return the metrics of this run.

    A new round starts while the run would end, by the last round's
    duration, less than half a round past `seconds`.  Untraced: every
    round counts, and each is followed by more set-ups, so that set-ups
    are spread over the run like the operations.  Traced: untraced and
    traced rounds alternate (at least one of each) and only traced ones
    give layers.
    """
    rounds: List[dict] = []
    layers: List[Dict[str, float]] = []
    t_start = perf_counter()
    last = 0.0
    while (not rounds or (traced and not layers)
           or perf_counter() - t_start + last / 2 < seconds):
        t0 = perf_counter()
        tracer = None
        if traced and len(rounds) % 2 == 1:
            tracer = spans.Tracer(f"{run_id}-round{len(rounds)}")
        r = runner.run_round(tracer)
        if tracer is not None:
            r["traced"] = True
            tracer.write_jsonl(spans_path)
            layers.append(spans.layer_metrics(tracer.records, r["offered"]))
        elif not traced:
            gc.collect()
            while sum(r["setups"]) < SETUP_PER_ROUND_S:
                r["setups"].append(runner.setup_only())
        rounds.append(r)
        last = perf_counter() - t0
    plan_s = runner.plan() if runner.wl.time_plan and not traced else None
    plain = [r for r in rounds if not r.get("traced")]
    setups = [s for r in plain for s in r["setups"]]
    # Work over time, summed over the run: unlike a median of per-round
    # figures, it moves smoothly with the share of the run a slow host
    # phase covers.
    imp_per_s = sum(r["offered"] for r in plain) / sum(r["op_s"] for r in plain)
    out = {
        "rounds": rounds,
        "attempted": sum(r["offered"] for r in rounds),
        "metrics": {
            "setup_s": sum(setups) / len(setups),
            "serve_imp_per_s" if runner.wl.serve else "sim_imp_per_s": imp_per_s,
            **({"plan_s": plan_s} if plan_s is not None else {}),
            **runner.quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if traced:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in rounds if r.get("traced"))
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        out["per_layer"] = per_layer
    return out


def environment(gd, seed: int) -> dict:
    return {"kernel_backend": gd.KERNEL_BACKEND,
            "gdserve_version": gd.__version__,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "seed": seed}


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool = False) -> dict:
    """Run one workload in this process; returns the full result record."""
    gd = import_gdserve()
    wl = WORKLOADS[workload]
    tag = f"{workload}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}"
    run_id = f"{tag}-pid{os.getpid()}"
    out = os.path.join(WORK, "out", run_id)
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(out, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    try:
        inp, manifest = prepare_inputs(seed, smoke, out)
    except BaseException:
        shutil.rmtree(out, ignore_errors=True)
        raise
    spans_path = os.path.join(spans_dir, f"{tag}.jsonl")
    if traced:
        open(spans_path, "w").close()
    runner = Runner(wl, inp, manifest, seed, out)
    record = {"workload": workload, "trace": int(traced), "smoke": smoke,
              "environment": environment(gd, seed),
              "inputs": {"sha256": manifest["sha256"],
                         **{k: manifest[k] for k in
                            ("impressions", "in_window", "supply_nodes", "edges")}}}
    try:
        result = measure(runner, seconds, traced, run_id, spans_path)
        record.update(correct=True, attempted=result["attempted"], failed=0,
                      error=None, **{k: result[k] for k in result if k != "attempted"})
    except Exception as exc:        # a check or the program failed: fail the run
        traceback.print_exc(file=sys.stderr)
        attempted = manifest["impressions" if wl.serve else "in_window"]
        record.update(correct=False, attempted=attempted, failed=attempted,
                      error=f"{type(exc).__name__}: {exc}", metrics={})
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["metrics"]["failed_frac"] = record["failed"] / record["attempted"]
    record["output_sha256"] = runner.output_digest
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(record: dict, spec: dict) -> dict:
    """The last stdout line: outcome counts and the declared metrics of the
    run's mode."""
    if not record["correct"]:
        values = {}
    elif record["trace"]:
        values = record["per_layer"]
    else:
        values = declared_end_to_end(record["metrics"])
    names = [m["name"] for m in spec["per_layer" if record["trace"] else "end_to_end"]]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": values[k], "unit": unit_of(k)}
                        for k in names if k in values}}


def compare_modes(untraced: dict, traced: dict) -> List[str]:
    """Tracing must not perturb results: both modes read the same inputs and
    write byte-identical outputs (`report.json` or the decisions file)."""
    problems = []
    if untraced["inputs"]["sha256"] != traced["inputs"]["sha256"]:
        problems.append("traced and untraced runs read different inputs")
    if untraced["output_sha256"] != traced["output_sha256"]:
        problems.append("traced and untraced runs wrote different outputs")
    return problems


# The end-to-end metrics a result record holds; each workload holds those
# it defines (`sim_imp_per_s` or `serve_imp_per_s`; `plan_s` on DUAL only;
# `sigma75_abs` when simulating).
RECORDED = ("setup_s", "sim_imp_per_s", "serve_imp_per_s", "plan_s",
            "underdelivery_frac", "sigma75_abs", "failed_frac", "peak_rss_mb")


def smoke(seed: int) -> int:
    """Every workload at the small shape, both modes: names, units, checks."""
    spec = declared()
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    problems += [f"BENCHMARK.json: {m['name']} should be in {unit_of(m['name'])}"
                 for key in ("end_to_end", "per_layer") for m in spec[key]
                 if m["unit"] != unit_of(m["name"])]
    recorded = set()
    for workload in WORKLOADS:
        records = []
        for traced in (False, True):
            record = run_one(workload, seed, 0.0, traced, smoke=True)
            records.append(record)
            line = result_line(record, spec)
            where = f"{workload} trace={int(traced)}"
            if not record["correct"]:
                problems.append(f"{where}: {record['error']}")
                continue
            for m in spec["per_layer" if traced else "end_to_end"]:
                value = line["metrics"].get(m["name"], {}).get("value")
                if not isinstance(value, (int, float)):
                    problems.append(f"{where}: {m['name']} missing or not a number")
                elif m["unit"] not in ("count", "fraction") and value <= 0:
                    problems.append(f"{where}: {m['name']} is not positive")
            held = record["per_layer" if traced else "metrics"]
            problems += [f"{where}: {k} is not a number" for k, v in held.items()
                         if not isinstance(v, (int, float))]
            if not traced:
                recorded |= held.keys()
            print(f"smoke {where}: {len(line['metrics'])} metrics, "
                  f"attempted {line['attempted']}, failed {line['failed']}")
        if all(r["correct"] for r in records):
            problems += [f"{workload}: {p}" for p in compare_modes(*records)]
    problems += [f"no workload records {k}" for k in RECORDED if k not in recorded]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload in both modes, each run in its own process; prints every
    metric by name and unit."""
    ok = True
    for workload in WORKLOADS:
        records = []
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                stdout=subprocess.DEVNULL, timeout=600)
            path = os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{traced}.json")
            if proc.returncode != 0 or not os.path.isfile(path):
                print(f"{workload} trace={traced}: exit {proc.returncode}")
                ok = False
                continue
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            records.append(record)
            ok &= record["correct"]
            print(f"{workload} trace={traced}: correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']}"
                  + (f" error={record['error']}" if record["error"] else ""))
            if not record["correct"]:
                continue
            for name, value in record["per_layer" if traced else "metrics"].items():
                shown = "-" if value is None else f"{value:.10g}"
                print(f"  {name:34s} {shown:>14s} {unit_of(name)}")
        if len(records) == 2 and all(r["correct"] for r in records):
            for problem in compare_modes(*records):
                print(f"{workload}: {problem}")
                ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, fewest rounds, checks every metric")
    args = parser.parse_args(argv)
    try:
        import_gdserve()
    except ImportError as exc:
        print(f"error: cannot import gdserve from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed={args.seed} backend="
          f"{record['environment']['kernel_backend']} metrics={record['metrics']}")
    print(json.dumps(result_line(record, declared())))
    return 0        # a failed check is reported in the line, as `correct` and `failed`


if __name__ == "__main__":
    sys.exit(main())
