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

The engine reads an `ImpressionStream`: columns of ids, timestamps and one
attribute-set id per impression, with one attribute map and one key per
distinct set.  `load_impressions` reads a file straight into one through
`iter_impressions`, the line reader `gdserve serve` streams from too: each
distinct set is checked and keyed once.  The reader parses speculatively
(as Mison does, Li et al., VLDB 2017): a line in the layout
`save_impressions` writes whose attributes text it has seen takes that
text's set with no JSON decode, and any other line is decoded in full, with
the same rows as a result.  Any other sequence of `ImpressionEvent`s is
turned into a stream by one pass.  Because the stream is sorted, each cycle
is a contiguous index range, found by bisecting the timestamps at the cycle
bounds, and a supply node's impressions in a cycle (from which re-plans
restate the forecast) are a count of set ids over that range.

An impression's eligible contracts come from one `EligibilityIndex` per
run: the graph's edges for an attribute set that is a supply node, and one
walk of the targeting trees per other attribute set.  Each cycle serves
through one `Server`, which remembers the candidates (eligible, planned, in
flight) per attribute set and flight phase, and the plan's probabilities
per candidate list, one entry per distinct list.  `Server.draw` makes
every sampled decision, here and in `gdserve serve`.

Two serving modes are supported.  In "sampled" mode every impression draws a
contract from its effective probabilities with one uniform (`Server.draw`),
a counter hash of the seed and the impression's stream position
(`impression_uniform`, SplitMix64), so runs are reproducible and any split
of the stream draws the same numbers.  In "expected" mode the fractional
probabilities themselves are accumulated, which removes all randomness and
lets tests reproduce analytic delivery numbers exactly.  No candidate list
changes inside a flight phase, so each cycle's range is cut at the
`Server`'s flight instants, and each piece adds, per attribute set, its
count of visits times the set's slice.  The sums are exact: every
probability is an integer number of units of 2^-1074 (`exact_units`), and
each contract's total is divided once, which rounds as `math.fsum` of the
per-impression probabilities would.  `shards` adds the bounds of that
many contiguous blocks of the range to the cuts, and the report is
bit-identical for every shard count.  That is the check that no decision
depends on another impression; it does not run blocks in parallel.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from itertools import islice
from operator import gt
from sys import intern
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

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


def impression_uniform(seed: int, index: int) -> float:
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


# Every finite double is an integer multiple of 2^-1074, the least subnormal.
_UNIT_DENOMINATOR = 1 << 1074


def exact_units(p: float) -> int:
    """The finite float `p` as an integer number of units of 2^-1074.

    Sums of such integers are exact, and `total / _UNIT_DENOMINATOR` (int
    true division) rounds once, to nearest, ties to even, as `math.fsum`
    does, so a count-weighted sum gives `math.fsum` of the expanded list.
    """
    num, den = p.as_integer_ratio()
    return num << (1075 - den.bit_length())


AttrsKey = Tuple[Tuple[str, str], ...]


def attrs_key(attrs: Mapping[str, str]) -> AttrsKey:
    """The canonical key of an attribute set: its items, sorted."""
    return tuple(sorted(attrs.items()))


class ImpressionStream(Sequence[ImpressionEvent]):
    """An impression stream held as columns, with its attribute sets interned.

    Impression i is `ids[i]`, `ts[i]` and attribute set `set_ids[i]`; set s
    has the attribute map `attrs[s]` and its `attrs_key`, `keys[s]`.  A set
    is a distinct map in its own key order, so equal maps written in two
    orders are two sets with equal keys, and every impression keeps the
    order it was read in.  Indexing and iteration give `ImpressionEvent`s;
    the events of one set share its map, which is not to be changed.
    """

    def __init__(self):
        self.ids: List[str] = []
        self.ts: List[datetime] = []
        self.set_ids: List[int] = []
        self.attrs: List[Mapping[str, str]] = []
        self.keys: List[AttrsKey] = []
        self._set_of_items: Dict[Tuple[Tuple[str, str], ...], int] = {}

    @classmethod
    def of(cls, events: Iterable[ImpressionEvent]) -> "ImpressionStream":
        """`events` as a stream: a stream itself, else one built in one pass."""
        if isinstance(events, cls):
            return events
        stream = cls()
        for ev in events:
            stream.ids.append(ev.id)
            stream.ts.append(ev.ts)
            stream.set_ids.append(stream.set_id(ev.attributes))
        return stream

    def set_id(self, attrs: Mapping[str, str]) -> int:
        """The id of the set `attrs`, added if it is new."""
        items = tuple(attrs.items())
        sid = self._set_of_items.get(items)
        if sid is None:
            sid = self._set_of_items[items] = len(self.attrs)
            self.attrs.append(attrs)
            self.keys.append(tuple(sorted(items)))      # attrs_key(attrs)
        return sid

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return ImpressionEvent(self.ids[i], self.ts[i], self.attrs[self.set_ids[i]])

    def __iter__(self) -> Iterator[ImpressionEvent]:
        attrs = self.attrs
        for imp_id, t, sid in zip(self.ids, self.ts, self.set_ids):
            yield ImpressionEvent(imp_id, t, attrs[sid])


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
                self._ids[attrs_key(n.attributes)] = graph.contracts_of[n.id]

    def lookup(self, key: AttrsKey, attrs: Mapping[str, str]) -> List[str]:
        """Ids eligible for `attrs`, whose `attrs_key` is `key`."""
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
    one decision from them and one uniform.  `instants` holds those sorted
    instants, so a caller can cut a sorted stream into phases.
    """

    def __init__(self, plan: ServingPlan, index: EligibilityIndex,
                 contracts: Iterable[Contract]):
        self._plan = plan
        self._index = index
        self._served = {c.id: c for c in contracts if c.id in plan}
        self.instants = sorted({t for c in self._served.values()
                                for t in (c.start, c.end)})
        # One entry (candidates, slice) per distinct candidate tuple.  Each
        # attribute set has one list of entries, indexed by phase, so equal
        # candidates in two slots are one tuple, found in one lookup.
        self._slices: Dict[Candidates, Tuple[Candidates, Slice]] = {}
        self._candidates: Dict[AttrsKey, List[Optional[Tuple[Candidates, Slice]]]] = {}

    def _entry(self, key: AttrsKey, attrs: Mapping[str, str],
               ts: datetime) -> Tuple[Candidates, Slice]:
        phase = bisect_right(self.instants, ts)
        phases = self._candidates.get(key)
        if phases is None:
            phases = self._candidates[key] = [None] * (len(self.instants) + 1)
        entry = phases[phase]
        if entry is None:
            served = self._served
            entry = phases[phase] = self._slice_entry(tuple(
                cid for cid in self._index.lookup(key, attrs)
                if cid in served and served[cid].in_flight(ts)))
        return entry

    def _slice_entry(self, cands: Candidates) -> Tuple[Candidates, Slice]:
        entry = self._slices.get(cands)
        if entry is None:
            probs = self._plan.effective_probs(cands)
            entry = self._slices[cands] = (cands, (tuple([cid for cid, _ in probs]),
                                                   [p for _, p in probs]))
        return entry

    def candidates(self, key: AttrsKey, attrs: Mapping[str, str],
                   ts: datetime) -> Candidates:
        """Ids served to `attrs` (whose `attrs_key` is `key`) at `ts`."""
        return self._entry(key, attrs, ts)[0]

    def slice(self, cands: Candidates) -> Slice:
        """`plan.effective_probs(cands)` as the ids in the plan's order and
        their probabilities, the list `draw_index` takes (two sequences
        hold less memory than the (id, probability) pairs)."""
        return self._slice_entry(cands)[1]

    def draw(self, key: AttrsKey, attrs: Mapping[str, str], ts: datetime,
             u: float) -> Tuple[Tuple[str, ...], List[float], int]:
        """One decision: the slice of the candidates of `attrs` at `ts`, and
        the index in it that the uniform `u` selects (-1: unallocated)."""
        ids, probs = self._entry(key, attrs, ts)[1]
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
    for kind, items, by_id in (("contract", graph.contracts, graph.contract_by_id),
                               ("supply node", graph.supply_nodes, graph.node_by_id)):
        if len(by_id) != len(items):
            dups = sorted(i for i, n in Counter(x.id for x in items).items() if n > 1)
            raise SimulationError(f"duplicate {kind} ids: " + ", ".join(dups))
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

    stream = ImpressionStream.of(impressions)
    ts, set_ids = stream.ts, stream.set_ids
    keys, attrs_of_set = stream.keys, stream.attrs
    if any(map(gt, ts, islice(ts, 1, None))):
        i = next(i for i in range(1, len(ts)) if ts[i] < ts[i - 1])
        raise SimulationError(
            f"impression {stream.ids[i]} at {ts[i].isoformat()} is out of order")

    # The stream is sorted, so cycle k is the index range
    # [starts[k], starts[k + 1]); count each supply node's impressions in it.
    starts = [bisect_left(ts, b) for b in bounds]
    served = starts[-1] - starts[0]
    skipped = len(ts) - served
    node_of_key = {attrs_key(n.attributes): n.id for n in graph.supply_nodes}
    node_of_set = [node_of_key.get(key) for key in keys]
    node_counts = {n.id: [0] * n_cycles for n in graph.supply_nodes}
    for k in range(n_cycles):
        for sid, n in Counter(set_ids[starts[k]:starts[k + 1]]).items():
            nid = node_of_set[sid]
            if nid is not None:
                node_counts[nid][k] += n

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
        lo, hi = starts[k], starts[k + 1]
        if plan is not None and lo < hi:
            # Plan membership matters: the dual planner drops contracts with
            # no eligible forecast supply.
            server = Server(plan, index, graph.contracts)
            if sampled:
                for i in range(lo, hi):
                    sid = set_ids[i]
                    ids, _, sel = server.draw(keys[sid], attrs_of_set[sid], ts[i],
                                              impression_uniform(cfg.seed, i))
                    if sel >= 0:
                        cid = ids[sel]
                        delivered[cid] += 1.0
                        if delivered[cid] >= contract_by_id[cid].booked_demand:
                            server.drop(cid)
            else:
                # No candidate list changes inside a flight phase, so each
                # phase's delivery is its count of each set times the set's
                # slice.  The shards' block bounds split the range further.
                block = max(1, math.ceil((hi - lo) / cfg.shards))
                cuts = sorted({bisect_left(ts, t, lo, hi) for t in server.instants}
                              .union(range(lo, hi, block), (hi,)))
                acc: Dict[str, int] = {}
                for a, b in zip(cuts, cuts[1:]):
                    for sid, n in Counter(set_ids[a:b]).items():
                        cands = server.candidates(keys[sid], attrs_of_set[sid], ts[a])
                        for cid, p in zip(*server.slice(cands)):
                            if p > 0.0:
                                acc[cid] = acc.get(cid, 0) + n * exact_units(p)
                for c in planning:
                    inc = acc.get(c.id, 0) / _UNIT_DENOMINATOR
                    booked = contract_by_id[c.id].booked_demand
                    delivered[c.id] = min(booked, delivered[c.id] + inc)

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

def load_impressions(path) -> ImpressionStream:
    """Read impressions.jsonl (see `iter_impressions`) into a stream."""
    stream = ImpressionStream()
    ids, ts, set_ids = stream.ids, stream.ts, stream.set_ids
    for imp_id, t, sid in iter_impressions(path, stream):
        ids.append(imp_id)
        ts.append(t)
        set_ids.append(sid)
    return stream


_decode = json.JSONDecoder().raw_decode

# The line `save_impressions` writes: a JSON string with no quote, backslash
# or control character for the id and the timestamp, and an attributes
# text that closes no brace before its last character.
_PLAIN_STR = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL_LINE = re.compile(r'\{"id": ' + _PLAIN_STR + r', "ts": ' + _PLAIN_STR
                             + r', "attributes": (\{[^}]*\})\}')


def iter_impressions(path, sets: ImpressionStream) -> Iterator[Tuple[str, datetime, int]]:
    """Rows (id, ts, set id) of impressions.jsonl, one per non-blank line.

    A line holds one JSON object {"id", "ts", "attributes"}, and nothing
    else, as `json.loads` requires.  The set id indexes `sets.attrs` and
    `sets.keys`: a set first seen is checked by `model.record_attributes`
    and added to `sets`, and a later line with the same items in the same
    order is matched to it without a check.  A bad line raises
    GraphDataError as `path:line`.

    The JSON decoder runs once per distinct attributes text of the lines in
    the layout `save_impressions` writes, `{"id": "<s>", "ts": "<s>",
    "attributes": {...}}`, where each <s> holds no `"`, `\\` or control
    character and the attributes text no `}` but its last character.  One
    regex checks a line against that layout; if its attributes text was
    decoded before in this call, the row is its id text, `parse_ts` of its
    ts text and the set id remembered for that text.  Any other line, and
    the first line of each text, is decoded in full, as above.  This is
    exact.  In such a line each <s> decodes to itself.  The attributes
    value must end at a `}`, and the only two left are the text's last
    character and the line's: ending at the line's leaves the outer object
    open.  So if one such line decodes, the value is the attributes text
    alone, no key follows it, and every such line with the same text
    decodes, to the same set, with id and ts as read.
    """
    known = sets._set_of_items
    set_of_text: Dict[str, int] = {}
    canonical = _CANONICAL_LINE.fullmatch
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                m = canonical(line)
                sid = None if m is None else set_of_text.get(m[3])
                if sid is not None:
                    row = (m[1], parse_ts(m[2]), sid)
                else:
                    rec, end = _decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                    try:
                        sid = known[tuple(rec["attributes"].items())]
                    except (KeyError, TypeError, AttributeError):
                        # A set not seen yet, or one record_attributes rejects.
                        # Its strings are interned, so sets share names and values.
                        sid = sets.set_id({intern(name): intern(value) for name, value
                                           in record_attributes(rec).items()})
                    row = (str(rec["id"]), parse_ts(rec["ts"]), sid)
                    if m is not None:
                        set_of_text[m[3]] = sid
            except (KeyError, ValueError, TypeError) as exc:
                raise GraphDataError(f"{path}:{lineno}: bad impression: {exc}") from exc
            yield row


def save_impressions(events: Sequence[ImpressionEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps({"id": ev.id, "ts": ev.ts.isoformat(),
                                 "attributes": ev.attributes}) + "\n")


def load_config(path) -> SimulationConfig:
    """Read the simulate config JSON (see SimulationConfig for fields).

    Numbers are read through `model.record_number`, `seed` and `shards`
    must be integers and `baseline_comparator` a JSON boolean.  A bad field
    raises SimulationError as `path: field ...`.
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
    comparator = raw.get("baseline_comparator", False)
    if not isinstance(comparator, bool):
        raise ValueError(f"baseline_comparator must be true or false, got {comparator!r}")
    kwargs = dict(
        algorithm=raw.get("algorithm", "hwm"),
        feedback=feedback,
        reopt_period_hours=record_number(raw, "reopt_period_hours", 24.0),
        forecast_error_multiplier=record_number(raw, "forecast_error_multiplier", 1.0),
        per_node_error=per_node,
        seed=_record_int(raw, "seed", 0),
        mode=raw.get("mode", "expected"),
        shards=_record_int(raw, "shards", 1),
        baseline_comparator=comparator)
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
