"""End-to-end delivery simulation with periodic re-optimization.

The engine streams timestamped impressions through a serving plan that is
regenerated at fixed cycle boundaries.  At each boundary the remaining
demand of every contract is restated from actual delivery (optionally passed
through the feedback adjustment), the remaining-flight supply forecast is
restated as the true remaining per-node supply times a configurable error
multiplier, and the chosen planner runs again: `generate_hwm_plan`,
`solve_dual_offline`, or the forecast-free reactive pacer of
`baseline_pacing`, whose plan is an `HwmPlan` too.  Between boundaries
serving is stateless: each impression's decision depends only on the
current plan and the impression itself.

An impression's eligible contracts come from one `EligibilityIndex` per
run: the graph's edges for an attribute set that is a supply node, and one
walk of the targeting trees per other attribute set.  Each cycle serves
through one `Server`, which remembers the candidates (eligible, planned, in
flight) per attribute set and flight phase, and the plan's probabilities
per candidate list.  `Server.draw` makes every sampled decision, here and
in `gdserve serve`.

Two serving modes are supported.  In "sampled" mode every impression draws a
contract from its effective probabilities with one uniform (`Server.draw`),
a counter hash of the seed and the impression's stream position
(`_impression_uniform`, SplitMix64), so runs are reproducible and any split
of the stream draws the same numbers.  In "expected" mode the fractional
probabilities themselves are accumulated, which removes all randomness and
lets tests reproduce analytic delivery numbers exactly.  There, `shards`
cut each cycle's impressions into that many contiguous blocks, served one
after another in this process; each contract's contributions are summed
with `math.fsum`, which is exact, so the report is bit-identical for every
shard count.  That is the check that no decision depends on another
impression; it does not run blocks in parallel.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import metrics as mx
from . import targeting as tg
from .dual import solve_dual_offline
from .feedback import DeliveryState, FeedbackConfig, apply_feedback, linear_goal
from .hwm import HwmEntry, HwmPlan, generate_hwm_plan
from .kernels import draw_index
from .model import (AllocationGraph, Contract, GraphDataError, ServingPlan,
                    parse_ts, record_attributes, record_number, replan_contract)


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class ImpressionEvent:
    """One user visit: opaque id, timestamp, attribute map."""

    id: str
    ts: datetime
    attributes: Dict[str, str]


@dataclass
class SimulationConfig:
    algorithm: str = "hwm"                    # "hwm" | "dual"
    feedback: Optional[FeedbackConfig] = None
    reopt_period_hours: float = 24.0
    forecast_error_multiplier: float = 1.0
    per_node_error: Optional[Dict[str, float]] = None
    seed: int = 0
    mode: str = "expected"                    # "expected" | "sampled"
    shards: int = 1
    sim_start: Optional[datetime] = None
    sim_end: Optional[datetime] = None
    baseline_comparator: bool = False

    def __post_init__(self):
        if self.reopt_period_hours <= 0:
            raise SimulationError("reopt_period_hours must be positive")
        if self.forecast_error_multiplier <= 0:
            raise SimulationError("forecast error multiplier must be positive")
        for nid, m in (self.per_node_error or {}).items():
            if m <= 0:
                raise SimulationError(f"node {nid}: error multiplier must be positive")
        if self.algorithm not in ("hwm", "dual"):
            raise SimulationError(f"unknown algorithm {self.algorithm!r}")
        if self.mode not in ("expected", "sampled"):
            raise SimulationError(f"unknown mode {self.mode!r}")
        if self.shards < 1:
            raise SimulationError("shards must be at least 1")
        if self.mode == "sampled" and self.shards != 1:
            raise SimulationError("sampled mode runs a single worker")


@dataclass
class ContractOutcome:
    contract_id: str
    booked: float
    delivered: float
    finished: bool

    @property
    def underdelivery_frac(self) -> float:
        return max(0.0, self.booked - self.delivered) / self.booked


@dataclass
class SimulationReport:
    algorithm: str
    mode: str
    cycle_bounds: List[datetime]
    outcomes: List[ContractOutcome]
    timeseries: List[mx.TimeseriesRow]
    rates: Dict[str, List[Optional[float]]]
    impressions_in_window: int
    impressions_skipped: int
    unallocated: float
    total_underdelivery_frac: float
    smoothness: Dict[str, Optional[float]]
    delivery_improvement: Optional[float] = None

    def booked_by_id(self) -> Dict[str, float]:
        return {o.contract_id: o.booked for o in self.outcomes}

    def delivered_by_id(self) -> Dict[str, float]:
        return {o.contract_id: o.delivered for o in self.outcomes}


# ---------------------------------------------------------------------------
# Analytic re-optimization drift: terminal delivery error and its bound
# ---------------------------------------------------------------------------

def terminal_delivery_error(r: float, k: int) -> float:
    """Exact terminal delivery error after k re-optimization cycles.

    `r` is the supply forecast error rate (1 minus the ratio of real to
    predicted supply, r < 1).  With uniform supply, per-cycle replanning and
    rates below saturation, the undelivered fraction of demand after the
    final cycle is (r/k) * prod_{i=1..k-1} (1 + r/i): positive values are
    underdelivery, negative values overdelivery.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if r >= 1:
        raise ValueError("error rate must be below 1")
    value = r / k
    for i in range(1, k):
        value *= 1.0 + r / i
    return value


def terminal_delivery_error_bound(r: float, k: int) -> float:
    """Closed-form upper bound on |terminal_delivery_error|.

    (r + r^2) / k^(1-r) for r > 0 (underdelivery side) and
    |r| / k^(1-r) for r < 0 (overdelivery side); 0 when r = 0.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if r >= 1:
        raise ValueError("error rate must be below 1")
    if r == 0:
        return 0.0
    if r > 0:
        return (r + r * r) / k ** (1.0 - r)
    return abs(r) / k ** (1.0 - r)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15     # 2^64 / golden ratio, odd


def _impression_uniform(seed: int, index: int) -> float:
    """The uniform in [0, 1) that impression `index` of a run with `seed` draws.

    A pure function of (seed, index), so decisions do not depend on how the
    stream is processed or split.  It is output number n = seed*G + index + 1
    (mod 2^64) of SplitMix64 started from state 0 (Steele, Lea & Flood,
    OOPSLA 2014): the counter n*G through the 64-bit finalizer, top 53 bits.
    Seed 0 is therefore SplitMix64's reference sequence, and each seed reads
    it from its own start, G positions after the previous seed's.  Starts of
    seeds up to 10^6 apart are at least 9.9e12 positions apart, so their
    streams do not overlap before that many impressions.
    """
    z = ((seed * _GOLDEN_GAMMA + index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


AttrsKey = Tuple[Tuple[str, str], ...]


def _attrs_key(attrs: Mapping[str, str]) -> AttrsKey:
    return tuple(sorted(attrs.items()))


class EligibilityIndex:
    """Eligible contract ids per attribute set, built once per run.

    A set that matches a supply node of `graph` takes the node's edges
    (`graph.contracts_of`).  Any other set is evaluated against the
    targeting of every contract in `contracts` the first time it is looked
    up and remembered for the rest of the run.  Ids come in no particular
    order; every plan's `effective_probs` orders its input itself.
    """

    def __init__(self, contracts: Sequence[Contract],
                 graph: Optional[AllocationGraph] = None):
        self._contracts = list(contracts)
        self._ids: Dict[AttrsKey, List[str]] = {}
        if graph is not None:
            for n in graph.supply_nodes:
                self._ids[_attrs_key(n.attributes)] = graph.contracts_of[n.id]

    def lookup(self, key: AttrsKey, attrs: Mapping[str, str]) -> List[str]:
        """Ids eligible for `attrs`, whose `_attrs_key` is `key`."""
        ids = self._ids.get(key)
        if ids is None:
            ids = [c.id for c in self._contracts if tg.eligible(attrs, c.targeting)]
            self._ids[key] = ids
        return ids


Candidates = Tuple[str, ...]
Slice = Tuple[Tuple[str, ...], List[float]]


class Server:
    """Serving state of one plan: candidates and plan slices, memoized.

    A decision depends only on the plan's slice for the impression's
    candidate contracts and on one uniform, so both are computed once and
    reused.  An impression's candidates are its eligible contracts
    (`index.lookup`) that the plan holds and that are in flight.  Those
    depend on the attribute set and on the flight phase only: the phases
    are the intervals between the sorted distinct start and end instants of
    the served contracts, and no contract enters or leaves its flight
    inside one.  So candidates are remembered per attribute set and phase,
    and slices (`plan.effective_probs`) per candidate tuple.  `draw` makes
    one decision from them and one uniform.
    """

    def __init__(self, plan: ServingPlan, index: EligibilityIndex,
                 contracts: Iterable[Contract]):
        self._plan = plan
        self._index = index
        self._served = {c.id: c for c in contracts if c.id in plan}
        self._instants = sorted({t for c in self._served.values()
                                 for t in (c.start, c.end)})
        # One list per attribute set, indexed by phase, so that one key
        # tuple is kept per set (`gdserve serve` makes a key per impression).
        self._candidates: Dict[AttrsKey, List[Optional[Candidates]]] = {}
        self._slices: Dict[Candidates, Slice] = {}

    def candidates(self, key: AttrsKey, attrs: Mapping[str, str],
                   ts: datetime) -> Candidates:
        """Ids served to `attrs` (whose `_attrs_key` is `key`) at `ts`."""
        phase = bisect_right(self._instants, ts)
        phases = self._candidates.get(key)
        if phases is None:
            phases = self._candidates[key] = [None] * (len(self._instants) + 1)
        cands = phases[phase]
        if cands is None:
            served = self._served
            cands = phases[phase] = tuple(
                cid for cid in self._index.lookup(key, attrs)
                if cid in served and served[cid].in_flight(ts))
        return cands

    def slice(self, cands: Candidates) -> Slice:
        """`plan.effective_probs(cands)` as the ids in the plan's order and
        their probabilities, the list `draw_index` takes (two sequences
        hold less memory than the (id, probability) pairs)."""
        sl = self._slices.get(cands)
        if sl is None:
            probs = self._plan.effective_probs(cands)
            sl = self._slices[cands] = (tuple([cid for cid, _ in probs]),
                                        [p for _, p in probs])
        return sl

    def draw(self, key: AttrsKey, attrs: Mapping[str, str], ts: datetime,
             u: float) -> Tuple[Tuple[str, ...], List[float], int]:
        """One decision: the slice of the candidates of `attrs` at `ts`, and
        the index in it that the uniform `u` selects (-1: unallocated)."""
        ids, probs = self.slice(self.candidates(key, attrs, ts))
        return ids, probs, draw_index(probs, u)

    def drop(self, contract_id: str) -> None:
        """Serve `contract_id` no more (it has met its booked demand)."""
        del self._served[contract_id]
        self._candidates.clear()


_BASE_GAIN = 4.0


class _BaseController:
    """Forecast-free reactive pacer: rates start at demand over estimated
    eligible traffic and are rescaled each cycle in proportion to the gap
    from the linear goal.  Its plan lists the contracts in a fixed priority
    order, soonest flight end first."""

    def __init__(self):
        self.rates: Dict[str, float] = {}

    def replan(self, planning_graph: AllocationGraph, cycle_start: datetime,
               delivered: Mapping[str, float], prev_cycle_traffic: Mapping[str, float],
               cycle_traffic: Mapping[str, float]) -> HwmPlan:
        """Rates for this cycle; traffic is eligible events per hour in the
        previous and in this cycle."""
        entries = []
        for c in sorted(planning_graph.contracts, key=lambda c: (c.end, c.id)):
            if c.id not in self.rates:
                traffic = prev_cycle_traffic.get(c.id) or cycle_traffic.get(c.id, 0.0)
                if traffic <= 0.0:
                    rate = 1.0
                else:
                    rate = min(1.0, c.booked_demand / (c.flight_hours * traffic))
            else:
                rate = self.rates[c.id]
                gap = (linear_goal(c, cycle_start) - delivered[c.id]) / c.booked_demand
                rate *= 1.0 + _BASE_GAIN * gap
                if gap > 0.0:
                    rate = max(rate, 1e-3)
                rate = min(max(rate, 0.0), 1.0)
            self.rates[c.id] = rate
            entries.append(HwmEntry(c.id, planning_graph.eligible_supply(c.id), rate))
        return HwmPlan(entries)


def run_simulation(graph: AllocationGraph, impressions: Sequence[ImpressionEvent],
                   cfg: SimulationConfig) -> SimulationReport:
    """Simulate serving `impressions` against `graph` under `cfg`."""
    return _run_engine(graph, impressions, cfg, cfg.algorithm)


def baseline_pacing(graph: AllocationGraph, impressions: Sequence[ImpressionEvent],
                    cfg: SimulationConfig) -> SimulationReport:
    """Simulate the reactive comparator (no forecast; pure pacing feedback)."""
    return _run_engine(graph, impressions, cfg, "base")


def _run_engine(graph: AllocationGraph, impressions: Sequence[ImpressionEvent],
                cfg: SimulationConfig, algorithm: str) -> SimulationReport:
    """Run the cycles with planner `algorithm`: "hwm", "dual" or "base" (the
    reactive pacer).  The planners and `draw_index` are module globals read
    at each call, so a wrapper set on this module (as the benchmark's traced
    runs set one) sees every call."""
    if not graph.contracts:
        raise SimulationError("no contracts to simulate")
    unknown = sorted(set(cfg.per_node_error or ()) - set(graph.node_by_id))
    if unknown:
        raise SimulationError("forecast_error_per_node names no supply node: "
                              + ", ".join(unknown))
    sim_start = cfg.sim_start or min(c.start for c in graph.contracts)
    sim_end = cfg.sim_end or max(c.end for c in graph.contracts)
    if sim_start >= sim_end:
        raise SimulationError("simulation window is empty")
    period = timedelta(hours=cfg.reopt_period_hours)
    bounds = [sim_start]
    while bounds[-1] < sim_end:
        bounds.append(min(bounds[-1] + period, sim_end))
    n_cycles = len(bounds) - 1
    cycle_hours = cfg.reopt_period_hours

    # Bucket impressions by cycle with their attribute-set keys, and count
    # each supply node's impressions per cycle.  Impressions of one set
    # share one key object, so the buckets hold no per-impression key.
    node_of_key = {_attrs_key(n.attributes): n.id for n in graph.supply_nodes}
    keys: Dict[AttrsKey, AttrsKey] = {}
    buckets: List[List[Tuple[int, ImpressionEvent, AttrsKey]]] = \
        [[] for _ in range(n_cycles)]
    node_counts = {n.id: [0] * n_cycles for n in graph.supply_nodes}
    skipped = 0
    prev_ts = None
    for idx, ev in enumerate(impressions):
        if prev_ts is not None and ev.ts < prev_ts:
            raise SimulationError(
                f"impression {ev.id} at {ev.ts.isoformat()} is out of order")
        prev_ts = ev.ts
        if not (sim_start <= ev.ts < sim_end):
            skipped += 1
            continue
        k = min((ev.ts - sim_start) // period, n_cycles - 1)
        key = _attrs_key(ev.attributes)
        key = keys.setdefault(key, key)
        buckets[k].append((idx, ev, key))
        nid = node_of_key.get(key)
        if nid is not None:
            node_counts[nid][k] += 1

    # Suffix sums: true remaining supply per node at each cycle start.
    remaining_actual = {nid: [0.0] * (n_cycles + 1) for nid in node_counts}
    for nid, counts in node_counts.items():
        acc = 0.0
        for k in range(n_cycles - 1, -1, -1):
            acc += counts[k]
            remaining_actual[nid][k] = acc

    def node_multiplier(nid: str) -> float:
        if cfg.per_node_error and nid in cfg.per_node_error:
            return cfg.per_node_error[nid]
        return cfg.forecast_error_multiplier

    index = EligibilityIndex(graph.contracts, graph)
    contract_by_id = graph.contract_by_id
    delivered: Dict[str, float] = {c.id: 0.0 for c in graph.contracts}
    boost: Dict[str, bool] = {c.id: False for c in graph.contracts}
    rates_trace: Dict[str, List[Optional[float]]] = {c.id: [] for c in graph.contracts}
    timeseries: List[mx.TimeseriesRow] = []
    served = 0
    sampled = cfg.mode == "sampled"
    pacer = _BaseController()

    def eligible_traffic(k: int) -> Dict[str, float]:
        # Eligible on-graph events per hour for each contract during cycle k.
        if k < 0 or k >= n_cycles:
            return {}
        hours = (bounds[k + 1] - bounds[k]).total_seconds() / 3600.0
        if hours <= 0:
            return {}
        out = {}
        for c in graph.contracts:
            total = sum(node_counts[nid][k] for nid in graph.nodes_of[c.id])
            out[c.id] = total / hours
        return out

    for k in range(n_cycles):
        cycle_start = bounds[k]
        cycle_end = bounds[k + 1]

        # Restate demand (actual delivery, optionally feedback-adjusted).
        planning: List[Contract] = []
        for c in graph.contracts:
            remaining = c.booked_demand - delivered[c.id]
            if remaining <= 0 or c.end <= cycle_start:
                continue
            reported = remaining
            if cfg.feedback is not None:
                state = DeliveryState(delivered[c.id], linear_goal(c, cycle_start),
                                      remaining, boost[c.id])
                reported, boost[c.id] = apply_feedback(
                    state, c, cycle_start, cfg.feedback, cycle_hours)
            planning.append(replan_contract(c, reported))
        plan = None
        if planning:
            planning_ids = {c.id for c in planning}
            # Restate the remaining-flight forecast: true remaining supply
            # distorted by the configured error multiplier.
            nodes = [replace(n, forecast_supply=remaining_actual[n.id][k]
                             * node_multiplier(n.id))
                     for n in graph.supply_nodes]
            edges = [(sid, cid) for sid, cid in graph.edges if cid in planning_ids]
            planning_graph = AllocationGraph(nodes, planning, edges)
            if algorithm == "hwm":
                plan = generate_hwm_plan(planning_graph, validate=False)
            elif algorithm == "dual":
                plan = solve_dual_offline(planning_graph, validate=False)
            else:
                plan = pacer.replan(planning_graph, cycle_start, delivered,
                                    eligible_traffic(k - 1), eligible_traffic(k))
            cycle_rates = {e.contract_id: e.alpha for e in plan.entries}
        else:
            cycle_rates = {}
        for c in graph.contracts:
            rates_trace[c.id].append(cycle_rates.get(c.id))

        # Serve this cycle's impressions.
        if plan is not None and buckets[k]:
            # Plan membership matters: the dual planner drops contracts with
            # no eligible forecast supply.
            server = Server(plan, index, graph.contracts)
            if sampled:
                for idx, ev, key in buckets[k]:
                    served += 1
                    ids, _, sel = server.draw(key, ev.attributes, ev.ts,
                                              _impression_uniform(cfg.seed, idx))
                    if sel >= 0:
                        cid = ids[sel]
                        delivered[cid] += 1.0
                        if delivered[cid] >= contract_by_id[cid].booked_demand:
                            server.drop(cid)
            else:
                # Sharded expected-value pass: contiguous blocks, contributions
                # concatenated in stream order, exact summation at the merge.
                contribs: Dict[str, List[float]] = {c.id: [] for c in planning}
                block = max(1, math.ceil(len(buckets[k]) / cfg.shards))
                for b in range(0, len(buckets[k]), block):
                    for idx, ev, key in buckets[k][b:b + block]:
                        served += 1
                        cands = server.candidates(key, ev.attributes, ev.ts)
                        if not cands:
                            continue
                        for cid, p in zip(*server.slice(cands)):
                            if p > 0.0:
                                contribs[cid].append(p)
                for c in planning:
                    inc = math.fsum(contribs[c.id])
                    booked = contract_by_id[c.id].booked_demand
                    delivered[c.id] = min(booked, delivered[c.id] + inc)
        elif buckets[k]:
            served += len(buckets[k])

        for c in graph.contracts:
            if c.start <= cycle_end <= c.end:
                timeseries.append(mx.TimeseriesRow(
                    cycle_end, c.id, delivered[c.id], linear_goal(c, cycle_end)))

    outcomes = [ContractOutcome(c.id, float(c.booked_demand), delivered[c.id],
                                c.end <= sim_end)
                for c in graph.contracts]
    unallocated = served - math.fsum(delivered.values())
    booked_total = sum(o.booked for o in outcomes)
    total_under = sum(max(0.0, o.booked - o.delivered) for o in outcomes) / booked_total
    smooth = mx.smoothness_summary(
        timeseries, {c.id: float(c.booked_demand) for c in graph.contracts},
        {o.contract_id for o in outcomes if o.finished})
    return SimulationReport(
        algorithm=algorithm, mode=cfg.mode, cycle_bounds=bounds,
        outcomes=outcomes, timeseries=timeseries, rates=rates_trace,
        impressions_in_window=served, impressions_skipped=skipped,
        unallocated=unallocated, total_underdelivery_frac=total_under,
        smoothness=smooth)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_impressions(path) -> List[ImpressionEvent]:
    """Read impressions.jsonl: {"id", "ts", "attributes"} per line."""
    return list(iter_impressions(path))


def iter_impressions(path) -> Iterable[ImpressionEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                yield ImpressionEvent(str(rec["id"]), parse_ts(rec["ts"]),
                                      record_attributes(rec))
            except (KeyError, ValueError, TypeError) as exc:
                raise GraphDataError(f"{path}:{lineno}: bad impression: {exc}") from exc


def save_impressions(events: Sequence[ImpressionEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps({"id": ev.id, "ts": ev.ts.isoformat(),
                                 "attributes": ev.attributes}) + "\n")


def load_config(path) -> SimulationConfig:
    """Read the simulate config JSON (see SimulationConfig for fields).

    Numbers are read through `model.record_number`, and `seed` and `shards`
    must be integers.  A bad field raises SimulationError as `path: field ...`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _config_from(json.loads(text))
    except ValueError as exc:
        raise SimulationError(f"{path}: {exc}") from exc


def _config_from(raw) -> SimulationConfig:
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {raw!r}")
    fb = raw.get("feedback")
    feedback = None
    if fb:
        if not isinstance(fb, dict):
            raise ValueError(f"feedback must be a JSON object, got {fb!r}")
        feedback = FeedbackConfig(
            delta_hours=record_number(fb, "delta_hours", 4.0),
            boost_behind=record_number(fb, "boost_behind", 1.5),
            damp_ahead=record_number(fb, "damp_ahead", 10.0),
            release_within_cycles=record_number(fb, "release_within_cycles", 2.0))
    per_node = raw.get("forecast_error_per_node")
    if per_node is not None:
        if not isinstance(per_node, dict):
            raise ValueError("forecast_error_per_node must be a JSON object, "
                             f"got {per_node!r}")
        try:
            per_node = {nid: record_number(per_node, nid) for nid in per_node}
        except ValueError as exc:
            raise ValueError(f"forecast_error_per_node: {exc}") from None
    kwargs = dict(
        algorithm=raw.get("algorithm", "hwm"),
        feedback=feedback,
        reopt_period_hours=record_number(raw, "reopt_period_hours", 24.0),
        forecast_error_multiplier=record_number(raw, "forecast_error_multiplier", 1.0),
        per_node_error=per_node,
        seed=_record_int(raw, "seed", 0),
        mode=raw.get("mode", "expected"),
        shards=_record_int(raw, "shards", 1),
        baseline_comparator=bool(raw.get("baseline_comparator", False)))
    for key in ("sim_start", "sim_end"):
        text = raw.get(key)
        if text:
            if not isinstance(text, str):
                raise ValueError(f"{key} must be an ISO-8601 string, got {text!r}")
            kwargs[key] = parse_ts(text)
    return SimulationConfig(**kwargs)


def _record_int(rec, key: str, default: int) -> int:
    value = record_number(rec, key, default)
    if not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def write_report(report: SimulationReport, report_path, timeseries_path) -> None:
    """Emit report.json and the per-cycle delivery_timeseries.csv."""
    doc = {
        "algorithm": report.algorithm,
        "mode": report.mode,
        "cycles": [b.isoformat() for b in report.cycle_bounds],
        "contracts": [
            {"id": o.contract_id, "booked": o.booked, "delivered": o.delivered,
             "underdelivery_frac": o.underdelivery_frac, "finished": o.finished}
            for o in report.outcomes],
        "total_underdelivery_frac": report.total_underdelivery_frac,
        "impressions_in_window": report.impressions_in_window,
        "impressions_skipped": report.impressions_skipped,
        "unallocated": report.unallocated,
        "smoothness": report.smoothness,
        "delivery_improvement": report.delivery_improvement,
        "rates": report.rates,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(timeseries_path, "w", encoding="utf-8") as fh:
        fh.write("cycle_end_ts,contract_id,delivered_cum,linear_goal\n")
        for row in report.timeseries:
            fh.write(f"{row.t.isoformat()},{row.contract_id},"
                     f"{row.delivered!r},{row.linear_goal!r}\n")
