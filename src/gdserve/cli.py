"""Command-line interface: plan generation, serving, simulation, metrics.

Subcommands
-----------
plan      build eligibility edges from supply/contract files and write a plan
serve     stream impressions through a plan file, one decision per line
simulate  run an end-to-end delivery simulation from a config + scenario dir
metrics   summarize a delivery timeseries into smoothness/improvement numbers
scenario  generate a synthetic scenario directory

Data files are JSON lines (plans, decisions, supply, contracts, impressions)
except the per-cycle delivery timeseries, which is CSV.  Diagnostics go to
stderr; data goes to files or stdout.  Exit status is 0 iff no errors.

`serve --workers N` acts out the paper's claim that compact plans are
stateless, so that servers need no central coordination.  The impression
file is cut into N byte ranges at line ends (`simulate.split_impressions`,
which also gives each range's first line number and first row); the first
range is served in this process and every other one in a forked child, all
from the same plan, into part files that are appended in order.  Row n of
the file draws `impression_uniform(seed, n)` in whichever process serves
it, so the decisions file is byte-identical for every N, and so are the
error and the partial file a bad line leaves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import signal
import sys
import tempfile
from bisect import bisect_right
from dataclasses import replace
from datetime import datetime
from functools import cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import dual as dual_mod
from . import hwm as hwm_mod
from . import metrics as mx
from . import model
from . import scenario as scenario_mod
from . import simulate as sim


def _load_graph(supply_path, contracts_path) -> model.AllocationGraph:
    return model.build_graph(model.load_supply(supply_path),
                             model.load_contracts(contracts_path))


def cmd_plan(args) -> int:
    graph = _load_graph(args.supply, args.contracts)
    if args.algorithm == "hwm":
        plan = hwm_mod.generate_hwm_plan(graph)
        hwm_mod.save_hwm_plan(plan, args.out)
    else:
        plan = dual_mod.solve_dual_offline(graph)
        dual_mod.save_dual_plan(plan, args.out)
        st = plan.stats
        print(f"note: dual solve: {st.sweeps} sweeps, {st.steps} coordinate "
              f"steps, {st.capped} contracts at the penalty/2 cap, worst "
              f"residual {st.worst_residual:.3g}",
              file=sys.stderr)
    for line in plan.diagnostics:
        print(f"note: {line}", file=sys.stderr)
    print(f"wrote {len(plan.entries)} plan entries to {args.out}", file=sys.stderr)
    return 0


def _load_plan(path):
    """Read an HWM or a dual plan file; a dual plan's records carry theta."""
    first = next(model.read_records(path, "plan record", json.loads), None)
    if isinstance(first, dict) and "theta" in first:
        return dual_mod.load_dual_plan(path)
    return hwm_mod.load_hwm_plan(path)


def _serve_workers(requested) -> int:
    """The number of processes `gdserve serve` uses: `--workers`, by default
    the CPUs this process may run on, and 1 where `os.fork` is missing."""
    cpus = os.cpu_count() or 1
    if requested is not None and not 1 <= requested <= cpus:
        raise ValueError(f"--workers must be between 1 and {cpus}, got {requested}")
    if not hasattr(os, "fork"):
        return 1
    if requested is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus
    return requested


def cmd_serve(args) -> int:
    workers = _serve_workers(args.workers)
    contracts = model.by_id("contract", model.load_contracts(args.contracts))
    plan = _load_plan(args.plan)
    plan_ids = [e.contract_id for e in plan.entries]
    for cid in plan_ids:
        if cid not in contracts:
            raise model.GraphDataError(
                f"plan contract {cid!r} is missing from {args.contracts}")
    planned = [contracts[cid] for cid in plan_ids]
    server = sim.Server(planned)
    server.replan(plan)
    # Each line is the bytes json.dumps writes for the decision dict
    # {"impression_id", "chosen", "probs", "u"}, put together from the
    # JSON of each plan id and of each slice's "probs", made once; an
    # impression id is encoded by the function json.dumps uses for a str.
    id_json = {cid: json.dumps(cid) for cid in plan_ids}
    probs_json: Dict[Tuple[str, ...], str] = {}
    encode_str = json.encoder.encode_basestring_ascii

    def serve(rng: sim.ImpressionRange, path) -> int:
        """Write the decisions of the rows of `rng` to `path`; returns their
        number.  Impressions are read row by row; only their attribute sets
        are kept.  Row n of the file draws `impression_uniform(seed, n)`, the
        uniforms of the range coming from one `impression_uniforms`.

        The slots hold each set's slice (with its "probs" JSON) for the
        flight phase [lo, hi) of the last row.  A row outside it, as in an
        unsorted file, finds its phase by bisection and empties the slots."""
        sets = sim.ImpressionStream()
        keys, attrs = sets.keys, sets.attrs
        rows = sim.iter_impressions(args.impressions, sets, rng.start, rng.first_line,
                                    rng.lines)
        uniforms = sim.impression_uniforms(args.seed, rng.first_row)
        lo = hi = datetime.min
        slots: Dict[int, Tuple[Tuple[str, ...], List[float], str]] = {}
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for (imp_id, ts, sid), u in zip(rows, uniforms):
                if not lo <= ts < hi:
                    instants = server.instants
                    phase = bisect_right(instants, ts)
                    lo = instants[phase - 1] if phase else datetime.min
                    hi = instants[phase] if phase < len(instants) else datetime.max
                    slots = {}
                slot = slots.get(sid)
                if slot is None:
                    ids, probs, cum = server.entry(keys[sid], attrs[sid], ts)
                    text = probs_json.get(ids)
                    if text is None:
                        text = probs_json[ids] = json.dumps(
                            [[cid, p] for cid, p in zip(ids, probs)])
                    slot = slots[sid] = (ids, cum, text)
                ids, cum, text = slot
                sel = sim.draw_index(cum, u)
                chosen = id_json[ids[sel]] if sel >= 0 else "null"
                out.write(f'{{"impression_id": {encode_str(imp_id)}, "chosen": {chosen}, '
                          f'"probs": {text}, "u": {u!r}}}\n')
                written += 1
        return written

    ranges = sim.split_impressions(args.impressions, workers)
    written = _serve_ranges(serve, ranges, args.out)
    print(f"wrote {written} decisions to {args.out}", file=sys.stderr)
    return 0


_COPY_BLOCK = 1 << 16


def _serve_ranges(serve, ranges: List[sim.ImpressionRange], out_path) -> int:
    """`serve` every range, the first here into `out_path` and each other in
    a forked child into a part file beside it; returns the rows served.

    The parts are appended to `out_path` in order, so it holds what one
    process serving the whole file writes.  If a range fails, the file
    holds the ranges before it and the part of it served before the error,
    and its error is raised: the first one in file order.  No child and no
    part file outlives the call.
    """
    out_dir = os.path.dirname(os.path.abspath(out_path))
    parts: List[str] = []
    children = []           # (pid, the read end of its result pipe, its part file)
    try:
        for rng in ranges[1:]:
            fd, part = tempfile.mkstemp(prefix=".gdserve-part-", dir=out_dir)
            os.close(fd)
            parts.append(part)
            read_end, write_end = os.pipe()
            pipe = os.fdopen(read_end, "rb")
            try:
                pid = os.fork()
            except BaseException:
                pipe.close()
                os.close(write_end)
                raise
            if pid == 0:
                _serve_child(serve, rng, part, write_end)
            os.close(write_end)
            children.append((pid, pipe, part))
        written = serve(ranges[0], out_path)
        with open(out_path, "ab") as out:
            while children:
                pid, pipe, part = children[0]
                data = pipe.read()
                pipe.close()
                _, status = os.waitpid(pid, 0)
                children.pop(0)
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out, _COPY_BLOCK)
                result = pickle.loads(data) if data else ChildProcessError(
                    f"serve worker {pid} ended with wait status {status}")
                if isinstance(result, BaseException):
                    raise result
                written += result
        return written
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            os.unlink(part)


def _serve_child(serve, rng: sim.ImpressionRange, part: str, write_end: int):
    """The body of a forked serve worker: serve `rng` into `part`, send the
    row count or the error back through `write_end`, and exit."""
    status = 1
    try:
        try:
            result = serve(rng, part)
            status = 0
        except BaseException as exc:        # sent to the parent, which raises it
            result = exc
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        # Never return into the caller's code; an error left unsent (one
        # that does not pickle) shows as a worker with no result.
        os._exit(status)


def cmd_simulate(args) -> int:
    cfg = sim.load_config(args.config)
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    # replace() runs the config's checks again on the overridden fields.
    cfg = replace(cfg, **overrides)
    scen = Path(args.scenario)
    graph = _load_graph(scen / "supply.jsonl", scen / "contracts.jsonl")
    impressions = sim.load_impressions(scen / "impressions.jsonl")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = sim.run_simulation(graph, impressions, cfg)
    if args.baseline:
        base = sim.baseline_pacing(graph, impressions, cfg)
        try:
            report.delivery_improvement = mx.delivery_improvement(
                report.booked_by_id(), report.delivered_by_id(),
                base.booked_by_id(), base.delivered_by_id())
        except mx.MetricsError as exc:
            print(f"note: {exc}", file=sys.stderr)
        sim.write_report(base, out / "baseline_report.json",
                         out / "baseline_delivery_timeseries.csv")
    sim.write_report(report, out / "report.json", out / "delivery_timeseries.csv")
    print(f"simulated {report.impressions_in_window} impressions over "
          f"{len(report.cycle_bounds) - 1} cycles; total underdelivery "
          f"{100 * report.total_underdelivery_frac:.2f}%", file=sys.stderr)
    return 0


def _read_timeseries(path, contract_ids) -> Tuple[List[mx.TimeseriesRow], datetime]:
    """Read a delivery timeseries (see `simulate.write_report`): the header,
    one row per line, and last the end-of-run row `<sim_end>,,,`.  Returns
    the rows and sim_end.  A bad header or row fails as `path:line: bad row:
    <reason>`, and a file with no rows or no end-of-run row as `path: ...`."""
    header = True
    sim_end: Optional[datetime] = None

    def row(line: str) -> Optional[mx.TimeseriesRow]:
        nonlocal header, sim_end
        if header:
            if line != sim.TIMESERIES_HEADER:
                raise ValueError(f"unexpected timeseries header {line.split(',')}")
            header = False
            return None
        if sim_end is not None:
            raise ValueError("a row follows the end-of-run row")
        ts, cid, delivered, goal = line.split(",")
        if not (cid or delivered or goal):
            sim_end = model.parse_ts(ts)
            return None
        out = mx.TimeseriesRow(model.parse_ts(ts), cid, float(delivered), float(goal))
        if cid not in contract_ids:
            raise ValueError(f"unknown contract {cid!r}")
        if not (math.isfinite(out.delivered) and math.isfinite(out.linear_goal)):
            raise ValueError("delivered_cum and linear_goal must be finite")
        return out
    rows = [r for r in model.read_records(path, "row", row) if r is not None]
    if not rows:
        raise model.GraphDataError(f"{path}: no rows")
    if sim_end is None:
        raise model.GraphDataError(f"{path}: no end-of-run row (<sim_end>,,,) "
                                   "after the rows")
    return rows, sim_end


def _final_delivery(rows: List[mx.TimeseriesRow]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in rows:
        out[row.contract_id] = row.delivered
    return out


def cmd_metrics(args) -> int:
    contracts = model.by_id("contract", model.load_contracts(args.contracts))
    rows, sim_end = _read_timeseries(args.timeseries, contracts)
    booked = {cid: float(c.booked_demand) for cid, c in contracts.items()}
    finished = {cid for cid, c in contracts.items() if c.end <= sim_end}
    result = mx.smoothness_summary(rows, booked, finished, args.positive_part)
    result["delivery_improvement"] = None
    if args.baseline:
        base_rows, _ = _read_timeseries(args.baseline, contracts)
        result["delivery_improvement"] = mx.delivery_improvement(
            booked, _final_delivery(rows), booked, _final_delivery(base_rows))
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_scenario(args) -> int:
    mix = None
    if args.flight_mix:
        mix = {}
        for part in args.flight_mix.split(","):
            name, sep, weight = part.partition("=")
            name = name.strip()
            if name in mix:
                raise ValueError(f"--flight-mix lists class {name!r} twice")
            try:
                if not sep:
                    raise ValueError
                mix[name] = float(weight)
            except ValueError:
                raise ValueError(
                    f"--flight-mix item {part!r} is not class=weight") from None
    spec = scenario_mod.ScenarioSpec(
        num_contracts=args.contracts, num_attributes=args.attributes,
        contention=args.contention, seed=args.seed, days=args.days,
        daily_traffic=args.daily_traffic, flight_mix=mix)
    graph, stream = scenario_mod.generate_scenario(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model.save_supply(graph.supply_nodes, out / "supply.jsonl")
    model.save_contracts(graph.contracts, out / "contracts.jsonl")
    sim.save_impressions(stream, out / "impressions.jsonl")
    print(f"wrote scenario with {len(graph.supply_nodes)} supply nodes, "
          f"{len(graph.contracts)} contracts, {len(stream)} impressions to {out}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdserve",
        description="Compact allocation plans for guaranteed-delivery serving")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="generate an allocation plan")
    p.add_argument("--supply", required=True)
    p.add_argument("--contracts", required=True)
    p.add_argument("--algorithm", choices=["hwm", "dual"], default="hwm")
    p.add_argument("--out", required=True)

    p = sub.add_parser("serve", help="serve an impression stream from a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--contracts", required=True)
    p.add_argument("--impressions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int,
                   help="processes serving byte ranges of --impressions "
                        "(default: the CPUs this process may use; 1 without os.fork)")

    p = sub.add_parser("simulate", help="run an end-to-end delivery simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario", required=True,
                   help="directory with supply.jsonl, contracts.jsonl, impressions.jsonl")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=["expected", "sampled"])
    p.add_argument("--seed", type=int)
    p.add_argument("--baseline", action="store_true",
                   help="also run the reactive comparator and report improvement")

    p = sub.add_parser("metrics", help="summarize a delivery timeseries")
    p.add_argument("--timeseries", required=True)
    p.add_argument("--contracts", required=True)
    p.add_argument("--baseline", help="baseline timeseries for improvement")
    p.add_argument("--positive-part", action="store_true",
                   help="score over-delivery only")

    p = sub.add_parser("scenario", help="generate a synthetic scenario directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--contracts", type=int, default=12)
    p.add_argument("--attributes", type=int, default=3)
    p.add_argument("--contention", choices=["low", "medium", "high"], default="medium")
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--daily-traffic", type=int, default=8000)
    p.add_argument("--flight-mix", help="e.g. day=0.2,multi_day=0.4,week=0.4")
    p.add_argument("--seed", type=int, default=0)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # `cmd_<command>` is looked up per call, so a replaced one is the one
    # that runs.  Every input error (GraphDataError, TargetingSyntaxError,
    # SimulationError, MetricsError) is a ValueError.
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (dual_mod.DualConvergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
