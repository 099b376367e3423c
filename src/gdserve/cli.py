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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from . import dual as dual_mod
from . import hwm as hwm_mod
from . import metrics as mx
from . import model
from . import scenario as scenario_mod
from . import simulate as sim
from . import targeting as tg


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GD_SEED")
    return int(env) if env else 0


def _load_graph(supply_path, contracts_path, edges_path=None) -> model.AllocationGraph:
    supply = model.load_supply(supply_path)
    contracts = model.load_contracts(contracts_path)
    if edges_path:
        graph = model.AllocationGraph(supply, contracts, model.load_edges(edges_path))
        violations = model.validate_graph(graph)
        if violations:
            raise model.GraphDataError(
                "edge override is inconsistent with targeting: "
                + "; ".join(violations[:5]))
        return graph
    return model.build_graph(supply, contracts)


def cmd_plan(args) -> int:
    graph = _load_graph(args.supply, args.contracts, args.edges)
    if args.algorithm == "hwm":
        plan = hwm_mod.generate_hwm_plan(graph)
        hwm_mod.save_hwm_plan(plan, args.out)
    else:
        plan = dual_mod.solve_dual_offline(graph)
        dual_mod.save_dual_plan(plan, args.out)
        st = plan.stats
        print(f"note: dual solve: {st.sweeps} sweeps, {st.capped} contracts "
              f"at the penalty/2 cap, worst residual {st.worst_residual:.3g}",
              file=sys.stderr)
    for line in plan.diagnostics:
        print(f"note: {line}", file=sys.stderr)
    print(f"wrote {len(plan.entries)} plan entries to {args.out}", file=sys.stderr)
    return 0


def _load_plan(path):
    """Read an HWM or a dual plan file; a dual plan's records carry theta."""
    first, lineno = "", 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                first = line
                break
    if not first:
        return hwm_mod.HwmPlan([])
    try:
        rec = json.loads(first)
    except ValueError as exc:
        raise model.GraphDataError(f"{path}:{lineno}: bad plan record: {exc}") from exc
    if isinstance(rec, dict) and "theta" in rec:
        return dual_mod.load_dual_plan(path)
    return hwm_mod.load_hwm_plan(path)


def cmd_serve(args) -> int:
    contracts = {c.id: c for c in model.load_contracts(args.contracts)}
    plan = _load_plan(args.plan)
    plan_ids = [e.contract_id for e in plan.entries]
    for cid in plan_ids:
        if cid not in contracts:
            raise model.GraphDataError(
                f"plan contract {cid!r} is missing from {args.contracts}")
    seed = _seed_from(args)
    planned = [contracts[cid] for cid in plan_ids]
    server = sim.Server(plan, sim.EligibilityIndex(planned), planned)
    # Each line is the bytes json.dumps writes for the decision dict
    # {"impression_id", "chosen", "probs", "u"}, put together from the
    # JSON of each plan id and of each slice's "probs", made once.
    id_json = {cid: json.dumps(cid) for cid in plan_ids}
    probs_json: Dict[Tuple[str, ...], str] = {}
    written = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for n, ev in enumerate(sim.iter_impressions(args.impressions)):
            u = sim._impression_uniform(seed, n)
            ids, probs, sel = server.draw(sim._attrs_key(ev.attributes),
                                          ev.attributes, ev.ts, u)
            text = probs_json.get(ids)
            if text is None:
                text = probs_json[ids] = json.dumps(
                    [[cid, p] for cid, p in zip(ids, probs)])
            chosen = id_json[ids[sel]] if sel >= 0 else "null"
            out.write(f'{{"impression_id": {json.dumps(ev.id)}, "chosen": {chosen}, '
                      f'"probs": {text}, "u": {u!r}}}\n')
            written += 1
    print(f"wrote {written} decisions to {args.out}", file=sys.stderr)
    return 0


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
    if args.baseline or cfg.baseline_comparator:
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


def _read_timeseries(path) -> List[mx.TimeseriesRow]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = ["cycle_end_ts", "contract_id", "delivered_cum", "linear_goal"]
        if header != expected:
            raise model.GraphDataError(f"{path}: unexpected timeseries header {header}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise model.GraphDataError(f"{path}:{lineno}: bad row")
            rows.append(mx.TimeseriesRow(model.parse_ts(parts[0]), parts[1],
                                         float(parts[2]), float(parts[3])))
    if not rows:
        raise model.GraphDataError(f"{path}: no rows")
    return rows


def _final_delivery(rows: List[mx.TimeseriesRow]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in rows:
        out[row.contract_id] = row.delivered
    return out


def cmd_metrics(args) -> int:
    contracts = {c.id: c for c in model.load_contracts(args.contracts)}
    rows = _read_timeseries(args.timeseries)
    booked = {cid: float(c.booked_demand) for cid, c in contracts.items()}
    sim_end = max(r.t for r in rows)
    finished = {cid for cid, c in contracts.items() if c.end <= sim_end}
    result = mx.smoothness_summary(rows, booked, finished, args.positive_part)
    result["delivery_improvement"] = None
    if args.baseline:
        base_rows = _read_timeseries(args.baseline)
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
        contention=args.contention, seed=_seed_from(args), days=args.days,
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
    p.add_argument("--edges", help="optional explicit edge override (edges.jsonl)")
    p.add_argument("--algorithm", choices=["hwm", "dual"], default="hwm")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("serve", help="serve an impression stream from a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--contracts", required=True)
    p.add_argument("--impressions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", help="run an end-to-end delivery simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--scenario", required=True,
                   help="directory with supply.jsonl, contracts.jsonl, impressions.jsonl")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=["expected", "sampled"])
    p.add_argument("--seed", type=int)
    p.add_argument("--baseline", action="store_true",
                   help="also run the reactive comparator and report improvement")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="summarize a delivery timeseries")
    p.add_argument("--timeseries", required=True)
    p.add_argument("--contracts", required=True)
    p.add_argument("--baseline", help="baseline timeseries for improvement")
    p.add_argument("--positive-part", action="store_true",
                   help="score over-delivery only")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("scenario", help="generate a synthetic scenario directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--contracts", type=int, default=12)
    p.add_argument("--attributes", type=int, default=3)
    p.add_argument("--contention", choices=["low", "medium", "high"], default="medium")
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--daily-traffic", type=int, default=8000)
    p.add_argument("--flight-mix", help="e.g. day=0.2,multi_day=0.4,week=0.4")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (model.GraphDataError, tg.TargetingSyntaxError, sim.SimulationError,
            mx.MetricsError, dual_mod.DualConvergenceError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
