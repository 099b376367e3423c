"""Synthetic scenario generation: graphs plus matching impression streams.

Stands in for production forecast/log data at desk scale.  All randomness
flows from the seed, so a scenario regenerates bit-identically.  Traffic is
modulated by hour of day (nights are quiet) and day of week (weekends are
lighter), and each supply node's forecast equals its actual event count, so
the base graph is a perfect forecast; error is injected at simulation time.

Targeting is evaluated in bulk (`targeting.AttributeIndex`), which gives
exactly what `targeting.eligible` gives map by map: a contract's demand
counts, over the stream's distinct attribute sets that its targeting
matches, each set's events inside the flight, and high contention tests
whether two contracts share a supply node by intersecting their bitsets
of nodes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta
from random import Random
from typing import Dict, List, Optional, Tuple

from . import targeting as tg
from .model import AllocationGraph, Contract, SupplyNode, build_graph
from .simulate import ImpressionEvent, attrs_key

_DIMENSIONS: List[Tuple[str, List[str]]] = [
    ("gender", ["male", "female"]),
    ("age_bucket", ["1", "2", "3", "4", "5", "6", "7"]),
    ("state", ["CA", "NY", "TX", "WA", "FL", "IL", "NV", "MA"]),
    ("interest", ["sports", "news", "finance", "autos", "travel", "games"]),
    ("device", ["desktop", "phone", "tablet"]),
    ("site", ["home", "mail", "search", "video"]),
]

_FLIGHT_CLASSES = ("day", "multi_day", "week")

START = datetime(2026, 3, 2)    # the first hour of every scenario

_NIGHT_FACTOR = 0.35    # midnight-8am and 10pm-midnight
_WEEKEND_FACTOR = 0.6


@dataclass
class ScenarioSpec:
    num_contracts: int = 12
    num_attributes: int = 3
    contention: str = "medium"            # "low" | "medium" | "high"
    seed: int = 0
    days: int = 7
    daily_traffic: int = 8000
    flight_mix: Optional[Dict[str, float]] = None   # day / multi_day / week
    demand_share: Tuple[float, float] = (0.3, 0.7)  # of eligible flight supply

    def __post_init__(self):
        if (self.num_contracts < 1 or self.num_attributes < 1 or self.days < 1
                or self.daily_traffic < 1):
            raise ValueError("scenario dimensions must be positive")
        if self.num_attributes > len(_DIMENSIONS):
            raise ValueError(f"at most {len(_DIMENSIONS)} attribute dimensions")
        if self.contention not in ("low", "medium", "high"):
            raise ValueError(f"unknown contention level {self.contention!r}")
        if self.flight_mix is None:
            self.flight_mix = {"day": 0.2, "multi_day": 0.4, "week": 0.4}
        unknown = sorted(set(self.flight_mix) - set(_FLIGHT_CLASSES))
        if unknown:
            raise ValueError(f"unknown flight class {', '.join(map(repr, unknown))}; "
                             f"expected {', '.join(_FLIGHT_CLASSES)}")
        weights = self.flight_mix.values()
        # Their sum too: `random.choices` rejects a total that overflows.
        if (not all(w >= 0.0 for w in weights) or not math.isfinite(sum(weights))
                or not any(weights)):
            raise ValueError("flight mix weights must be finite, non-negative "
                             "and not all zero")


def generate_scenario(spec: ScenarioSpec) -> Tuple[AllocationGraph, List[ImpressionEvent]]:
    """Build a deterministic synthetic scenario from the spec."""
    rng = Random(spec.seed)
    dims = _DIMENSIONS[:spec.num_attributes]

    # Supply nodes: sampled attribute combinations, sometimes with an
    # attribute left unknown (absent).
    target_nodes = min(4 * spec.num_contracts + 8, _universe_size(dims) or 10**9)
    combos = set()
    nodes_attrs: List[Dict[str, str]] = []
    guard = 0
    while len(nodes_attrs) < target_nodes and guard < target_nodes * 50:
        guard += 1
        attrs = {}
        for name, values in dims:
            if rng.random() < 0.15:
                continue  # unknown attribute
            attrs[name] = rng.choice(values)
        key = attrs_key(attrs)
        if key in combos or not attrs:
            continue
        combos.add(key)
        nodes_attrs.append(attrs)
    weights = [rng.lognormvariate(0.0, 0.8) for _ in nodes_attrs]

    contracts_meta = [_contract_meta(rng, spec, dims, i)
                      for i in range(spec.num_contracts)]

    if spec.contention == "high":
        _ensure_shared_nodes(rng, dims, nodes_attrs, contracts_meta, combos)
        weights += [rng.lognormvariate(0.0, 0.8)
                    for _ in range(len(nodes_attrs) - len(weights))]

    # Hourly event counts per node, then the event stream.
    total_weight = sum(weights)
    hours = spec.days * 24
    hour_shape = [_hour_factor(START + timedelta(hours=h)) for h in range(hours)]
    shape_total = sum(hour_shape)
    events: List[Tuple[datetime, Dict[str, str]]] = []
    node_counts = [0] * len(nodes_attrs)
    for ni, (attrs, w) in enumerate(zip(nodes_attrs, weights)):
        node_total = spec.daily_traffic * spec.days * w / total_weight
        for h in range(hours):
            lam = node_total * hour_shape[h] / shape_total
            count = int(lam) + (1 if rng.random() < lam - int(lam) else 0)
            node_counts[ni] += count
            base = START + timedelta(hours=h)
            for _ in range(count):
                events.append((base + timedelta(seconds=rng.uniform(0, 3600)), attrs))
    # A thin stream of off-graph visits: attribute combinations that exist in
    # the universe but were never forecast as supply nodes.
    n_extra = max(1, len(events) // 50)
    for _ in range(n_extra):
        attrs = {name: rng.choice(values) for name, values in dims}
        if attrs_key(attrs) in combos:
            continue
        h = rng.randrange(hours)
        base = START + timedelta(hours=h)
        events.append((base + timedelta(seconds=rng.uniform(0, 3600)), attrs))
    events.sort(key=lambda e: e[0])
    stream = [ImpressionEvent(f"imp-{i:07d}", ts, dict(attrs))
              for i, (ts, attrs) in enumerate(events)]

    supply_nodes = [SupplyNode(f"n{ni:04d}", attrs, node_counts[ni])
                    for ni, attrs in enumerate(nodes_attrs)]

    # Demands: a share of the eligible actual supply inside the flight,
    # counted by bisecting each matched attribute set's times (stream order
    # is time order).
    times_of: Dict[tuple, List[datetime]] = {}
    for ev in stream:
        times_of.setdefault(attrs_key(ev.attributes), []).append(ev.ts)
    set_times = list(times_of.values())
    sets = tg.AttributeIndex([dict(key) for key in times_of])
    contracts = []
    for meta in contracts_meta:
        cid, expr, start, end = meta
        eligible_flight = 0
        for k in tg.members(sets.matches(expr)):
            times = set_times[k]
            eligible_flight += bisect_left(times, end) - bisect_left(times, start)
        share = rng.uniform(*spec.demand_share)
        demand = max(1, int(eligible_flight * share))
        contracts.append(Contract(cid, expr, demand, start, end))
    graph = build_graph(supply_nodes, contracts)
    return graph, stream


def _universe_size(dims) -> int:
    size = 1
    for _, values in dims:
        size *= len(values) + 1  # +1: attribute may be unknown
    return size - 1


def _hour_factor(t: datetime) -> float:
    f = 1.0 if 8 <= t.hour < 22 else _NIGHT_FACTOR
    if t.weekday() >= 5:
        f *= _WEEKEND_FACTOR
    return f


def _contract_meta(rng: Random, spec: ScenarioSpec, dims, index: int):
    cid = f"c{index:03d}"
    # Predicate breadth drives contention: broad single-attribute predicates
    # overlap heavily, narrow conjunctions rarely collide.
    if spec.contention == "high":
        name, values = dims[rng.randrange(len(dims))]
        width = max(1, len(values) - 1)
        expr: tg.TargetingExpr = tg.In(name, frozenset(rng.sample(values, width))) \
            if width > 1 else tg.Equals(name, rng.choice(values))
    elif spec.contention == "medium":
        picks = rng.sample(range(len(dims)), min(2, len(dims)))
        parts = []
        for di in picks:
            name, values = dims[di]
            k = rng.randint(1, max(1, len(values) // 2))
            vals = frozenset(rng.sample(values, k))
            parts.append(tg.In(name, vals) if len(vals) > 1
                         else tg.Equals(name, next(iter(vals))))
        expr = parts[0] if len(parts) == 1 else tg.And(tuple(parts))
    else:
        picks = rng.sample(range(len(dims)), min(3, len(dims)))
        parts = [tg.Equals(dims[di][0], rng.choice(dims[di][1])) for di in picks]
        expr = parts[0] if len(parts) == 1 else tg.And(tuple(parts))

    kinds = list(spec.flight_mix)
    kind = rng.choices(kinds, weights=[spec.flight_mix[k] for k in kinds])[0]
    if kind == "day":
        d0 = rng.randrange(spec.days)
        start, end = d0, d0 + 1
    elif kind == "multi_day":
        length = rng.randint(2, min(4, spec.days)) if spec.days > 1 else 1
        d0 = rng.randrange(max(1, spec.days - length + 1))
        start, end = d0, d0 + length
    else:
        start, end = 0, spec.days
    return (cid, expr,
            START + timedelta(days=start),
            START + timedelta(days=end))


def _ensure_shared_nodes(rng, dims, nodes_attrs, contracts_meta, combos):
    """High contention requires every contract to share a node with another.

    `targeted[j]` is the bitset of the nodes contract j targets, kept
    current as nodes are appended; contracts i and j share a node when
    `targeted[i] & targeted[j]` is not zero.
    """
    index = tg.AttributeIndex(nodes_attrs)
    targeted = [index.matches(meta[1]) for meta in contracts_meta]
    for j, meta in enumerate(contracts_meta):
        if any(targeted[j] & nodes for i, nodes in enumerate(targeted) if i != j):
            continue
        # Add one node satisfying this contract and some other one.
        for i, other in enumerate(contracts_meta):
            if i == j:
                continue
            attrs = _joint_witness(rng, dims, meta[1], other[1])
            if attrs is not None and attrs_key(attrs) not in combos:
                combos.add(attrs_key(attrs))
                bit = 1 << len(nodes_attrs)
                nodes_attrs.append(attrs)
                for h, (_, expr, _, _) in enumerate(contracts_meta):
                    if tg.eligible(attrs, expr):
                        targeted[h] |= bit
                break


def _joint_witness(rng, dims, expr_a, expr_b) -> Optional[Dict[str, str]]:
    for _ in range(500):
        attrs = {name: rng.choice(values) for name, values in dims}
        if tg.eligible(attrs, expr_a) and tg.eligible(attrs, expr_b):
            return attrs
    return None


def demo_graph() -> AllocationGraph:
    """A small three-contract example over gender/state/age segments.

    Six supply segments (all in age bucket 5) feed contracts targeting males,
    Californians, and the age bucket itself.  The resulting plan serves a
    {CA, age 5} visit to the California contract with probability 1, and a
    {male, age 5} visit to the male contract with probability 1/4, the age
    contract with probability 5/8, leaving 1/8 unallocated.
    """
    start, end = START, START + timedelta(days=7)
    nodes = [
        SupplyNode("ca_male", {"state": "CA", "gender": "male", "age_bucket": "5"}, 60),
        SupplyNode("ca_unknown", {"state": "CA", "age_bucket": "5"}, 100),
        SupplyNode("wa_male", {"state": "WA", "gender": "male", "age_bucket": "5"}, 100),
        SupplyNode("unknown_male", {"gender": "male", "age_bucket": "5"}, 140),
        SupplyNode("nv_unknown", {"state": "NV", "age_bucket": "5"}, 120),
        SupplyNode("unknown_unknown", {"age_bucket": "5"}, 120),
    ]
    contracts = [
        Contract("males", tg.parse_targeting("gender = male"), 60, start, end),
        Contract("california", tg.parse_targeting("state = CA"), 160, start, end),
        Contract("age5", tg.parse_targeting("age_bucket = 5"), 300, start, end),
    ]
    return build_graph(nodes, contracts)
