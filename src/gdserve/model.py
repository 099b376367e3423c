"""Bipartite supply-demand model: supply nodes, contracts, graphs, feasibility.

Supply counts are integer impression counts; allocation fractions and rates
are 64-bit floats.  Forecast restatement inside the simulator may produce
fractional supply values, so arithmetic treats supply as float throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import (Callable, Dict, List, Mapping, Optional, Protocol, Sequence,
                    Tuple, TypeVar)

from . import targeting as tg

AttributeMap = Dict[str, str]
T = TypeVar("T")
Edge = Tuple[str, str]


class GraphDataError(ValueError):
    """Malformed graph input (bad reference, bad file line, ...)."""


def parse_ts(text: str) -> datetime:
    """Parse an ISO-8601 timestamp ('Z' suffix accepted).

    Zone-aware stamps are converted to UTC and returned naive, so inputs
    with mixed conventions stay comparable.
    """
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


@dataclass(frozen=True)
class SupplyNode:
    """A class of forecasted impressions sharing one attribute combination."""

    id: str
    attributes: Mapping[str, str]
    forecast_supply: float

    def __post_init__(self):
        if self.forecast_supply < 0:
            raise GraphDataError(f"supply node {self.id}: negative supply")


@dataclass(frozen=True)
class Contract:
    """A guaranteed-delivery demand node with targeting and a flight window.

    `demand` is the currently reported remaining demand used for planning;
    `booked_demand` is the originally sold total, retained for metrics.
    `penalty` is the per-impression underdelivery price used by the
    dual-based planner.
    """

    id: str
    targeting: tg.TargetingExpr
    demand: float
    start: datetime
    end: datetime
    booked_demand: float = 0.0
    penalty: float = 10.0

    def __post_init__(self):
        if self.booked_demand == 0.0:
            object.__setattr__(self, "booked_demand", self.demand)
        if self.demand <= 0:
            raise GraphDataError(f"contract {self.id}: demand must be positive")
        if self.start >= self.end:
            raise GraphDataError(f"contract {self.id}: start must precede end")
        if self.penalty <= 0:
            raise GraphDataError(f"contract {self.id}: penalty must be positive")

    @property
    def flight_hours(self) -> float:
        return (self.end - self.start).total_seconds() / 3600.0

    def in_flight(self, t: datetime) -> bool:
        return self.start <= t < self.end


@dataclass
class AllocationGraph:
    """The bipartite forecast graph: supply nodes, contracts, eligibility edges.

    Treat as immutable once built; it can then be shared freely across
    serving threads.  Re-optimization works on fresh copies (see
    replan_contract), never by mutating a live graph.
    """

    supply_nodes: List[SupplyNode]
    contracts: List[Contract]
    edges: List[Edge]
    node_by_id: Dict[str, SupplyNode] = field(init=False, repr=False)
    contract_by_id: Dict[str, Contract] = field(init=False, repr=False)
    contracts_of: Dict[str, List[str]] = field(init=False, repr=False)
    nodes_of: Dict[str, List[str]] = field(init=False, repr=False)

    def __post_init__(self):
        self.node_by_id = {n.id: n for n in self.supply_nodes}
        self.contract_by_id = {c.id: c for c in self.contracts}
        self.contracts_of = {n.id: [] for n in self.supply_nodes}
        self.nodes_of = {c.id: [] for c in self.contracts}
        for sid, cid in self.edges:
            if sid in self.contracts_of:
                self.contracts_of[sid].append(cid)
            if cid in self.nodes_of:
                self.nodes_of[cid].append(sid)

    def eligible_supply(self, contract_id: str) -> float:
        """Total forecast supply across the contract's neighbor nodes."""
        return sum(self.node_by_id[sid].forecast_supply
                   for sid in self.nodes_of[contract_id])


def build_graph(supply_nodes: List[SupplyNode],
                contracts: List[Contract]) -> AllocationGraph:
    """Construct a graph with edges derived from targeting eligibility."""
    edges = tg.build_edges(supply_nodes, contracts)
    return AllocationGraph(supply_nodes, contracts, edges)


def validate_graph(graph: AllocationGraph) -> List[str]:
    """Check all graph invariants; returns one message per violation.

    Violations are data, not errors: an empty list means the graph is valid.
    """
    violations: List[str] = []
    seen_nodes = set()
    for node in graph.supply_nodes:
        if node.id in seen_nodes:
            violations.append(f"duplicate supply node id {node.id!r}")
        seen_nodes.add(node.id)
        if node.forecast_supply < 0:
            violations.append(f"supply node {node.id!r}: negative supply")
    seen_contracts = set()
    for c in graph.contracts:
        if c.id in seen_contracts:
            violations.append(f"duplicate contract id {c.id!r}")
        seen_contracts.add(c.id)
        if c.demand <= 0:
            violations.append(f"contract {c.id!r}: non-positive demand")
        if c.start >= c.end:
            violations.append(f"contract {c.id!r}: start not before end")
        if c.booked_demand < c.demand:
            violations.append(f"contract {c.id!r}: booked demand below demand")
    edge_set = set()
    for sid, cid in graph.edges:
        if (sid, cid) in edge_set:
            violations.append(f"duplicate edge ({sid!r}, {cid!r})")
        edge_set.add((sid, cid))
        if sid not in graph.node_by_id:
            violations.append(f"edge ({sid!r}, {cid!r}): unknown supply node")
            continue
        if cid not in graph.contract_by_id:
            violations.append(f"edge ({sid!r}, {cid!r}): unknown contract")
            continue
        node = graph.node_by_id[sid]
        contract = graph.contract_by_id[cid]
        if not tg.eligible(node.attributes, contract.targeting):
            violations.append(
                f"edge ({sid!r}, {cid!r}): node does not satisfy contract targeting")
    # Eligible pairs must all be present: the edge set is exactly the
    # targeting relation, whether derived or supplied by hand.
    for node in graph.supply_nodes:
        for contract in graph.contracts:
            if (node.id, contract.id) in edge_set:
                continue
            if tg.eligible(node.attributes, contract.targeting):
                violations.append(
                    f"missing edge ({node.id!r}, {contract.id!r}): "
                    "node satisfies contract targeting")
    return violations


@dataclass
class FractionalAllocation:
    """Sparse edge allocation: x values in [0, 1]; absent edges are 0."""

    values: Dict[Edge, float] = field(default_factory=dict)

    def get(self, sid: str, cid: str) -> float:
        return self.values.get((sid, cid), 0.0)


class ServingPlan(Protocol):
    """What serving needs of a plan (`HwmPlan`, `DualPlan`)."""

    def __contains__(self, contract_id: str) -> bool:
        """Whether the plan serves `contract_id`."""

    def effective_probs(self, contract_ids: Sequence[str]) -> List[Tuple[str, float]]:
        """Serve-time (contract id, probability) pairs for one impression's
        eligible contracts, in an order fixed by the plan, not by the input."""


def forecast_allocation(graph: AllocationGraph, plan: ServingPlan
                        ) -> Tuple[FractionalAllocation, Dict[str, float]]:
    """Replay the forecast through any plan: edge fractions and delivery.

    Each supply node's planned contracts take the plan's serve-time
    probabilities; a contract's expected delivery is the sum of s_i times
    its probability at node i.  No sampling is involved.
    """
    values = {}
    delivered = {c.id: 0.0 for c in graph.contracts}
    for node in graph.supply_nodes:
        cids = [cid for cid in graph.contracts_of[node.id] if cid in plan]
        if not cids:
            continue
        for cid, p in plan.effective_probs(cids):
            if p > 0.0:
                values[(node.id, cid)] = p
                delivered[cid] += node.forecast_supply * p
    return FractionalAllocation(values), delivered


@dataclass
class FeasibilityReport:
    feasible: bool
    demand_slack: Dict[str, float]
    supply_excess: Dict[str, float]
    negative_entries: List[Edge]


def check_feasibility(graph: AllocationGraph, alloc: FractionalAllocation,
                      tol: float = 1e-9) -> FeasibilityReport:
    """Evaluate the demand, supply, and non-negativity constraint families.

    demand_slack[j] = sum_i x_ij * s_i - d_j   (feasible iff >= -tol)
    supply_excess[i] = sum_j x_ij - 1          (feasible iff <= tol)
    """
    for sid, cid in alloc.values:
        if (sid not in graph.node_by_id or cid not in graph.contract_by_id
                or cid not in graph.contracts_of.get(sid, [])):
            raise GraphDataError(f"allocation references unknown edge ({sid!r}, {cid!r})")
    demand_slack = {}
    for c in graph.contracts:
        delivered = sum(alloc.get(sid, c.id) * graph.node_by_id[sid].forecast_supply
                        for sid in graph.nodes_of[c.id])
        demand_slack[c.id] = delivered - c.demand
    supply_excess = {}
    for node in graph.supply_nodes:
        total = sum(alloc.get(node.id, cid) for cid in graph.contracts_of[node.id])
        supply_excess[node.id] = total - 1.0
    negative = sorted(edge for edge, x in alloc.values.items() if x < -tol)
    feasible = (all(s >= -tol for s in demand_slack.values())
                and all(e <= tol for e in supply_excess.values())
                and not negative)
    return FeasibilityReport(feasible, demand_slack, supply_excess, negative)


# ---------------------------------------------------------------------------
# JSON-lines file formats
# ---------------------------------------------------------------------------

def record_number(rec, key: str, default: Optional[float] = None) -> float:
    """Field `key` of a JSON record, checked to be a finite number.

    A missing field takes `default` (KeyError when there is none); a field
    that is not a finite JSON number (a boolean, a string, NaN, Infinity)
    raises ValueError.  Loaders catch both and report the file and line.
    An integer is returned as an int, so a count read from a file equals
    the same count built in memory, down to how reports print it.
    """
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    if key not in rec:
        if default is None:
            raise KeyError(key)
        return default
    value = rec[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def record_attributes(rec) -> AttributeMap:
    """Field "attributes" of a JSON record, checked to map strings to strings.

    A missing field is an empty map.  Anything but a JSON object whose
    values are all strings (a list of pairs, a number value, null) raises
    ValueError, which loaders report with the file and line: targeting
    compares strings, so a number value would match nothing, silently.
    JSON object keys are always strings.
    """
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    attrs = rec.get("attributes", {})
    if not isinstance(attrs, dict):
        raise ValueError(f"attributes must be a JSON object, got {attrs!r}")
    for name, value in attrs.items():
        if type(value) is not str:
            raise ValueError(f"attribute {name!r} must be a string, got {value!r}")
    return attrs


def read_plan_file(path, parse: Callable[[dict], T]) -> List[T]:
    """Parse a plan file, one record per non-blank line, with `parse`.

    A record that `parse` rejects (KeyError, ValueError or TypeError) or
    that lists a contract already listed fails with the file and line.
    """
    entries: List[T] = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = parse(json.loads(line))
                if entry.contract_id in seen:
                    raise ValueError(f"contract {entry.contract_id!r} is listed twice")
            except (KeyError, ValueError, TypeError) as exc:
                raise GraphDataError(f"{path}:{lineno}: bad plan record: {exc}") from exc
            seen.add(entry.contract_id)
            entries.append(entry)
    return entries


def load_supply(path) -> List[SupplyNode]:
    """Read supply.jsonl: {"id", "attributes": {..}, "supply": int} per line."""
    nodes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                nodes.append(SupplyNode(str(rec["id"]), record_attributes(rec),
                                        record_number(rec, "supply")))
            except (KeyError, ValueError, TypeError) as exc:
                raise GraphDataError(f"{path}:{lineno}: bad supply record: {exc}") from exc
    return nodes


def save_supply(nodes: List[SupplyNode], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n in nodes:
            supply = int(n.forecast_supply) if float(n.forecast_supply).is_integer() \
                else n.forecast_supply
            fh.write(json.dumps({"id": n.id, "attributes": dict(n.attributes),
                                 "supply": supply}) + "\n")


def load_contracts(path) -> List[Contract]:
    """Read contracts.jsonl: {"id", "targeting", "demand", "start", "end"[, "penalty", "booked"]}."""
    contracts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                contracts.append(Contract(
                    id=str(rec["id"]),
                    targeting=tg.parse_targeting(rec["targeting"]),
                    demand=record_number(rec, "demand"),
                    start=parse_ts(rec["start"]),
                    end=parse_ts(rec["end"]),
                    booked_demand=record_number(rec, "booked", 0.0),
                    penalty=record_number(rec, "penalty", 10.0),
                ))
            except tg.TargetingSyntaxError as exc:
                raise GraphDataError(
                    f"{path}:{lineno}: bad targeting expression: {exc}") from exc
            except (KeyError, ValueError, TypeError) as exc:
                raise GraphDataError(f"{path}:{lineno}: bad contract record: {exc}") from exc
    return contracts


def save_contracts(contracts: List[Contract], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in contracts:
            rec = {
                "id": c.id,
                "targeting": tg.unparse(c.targeting),
                "demand": int(c.demand) if float(c.demand).is_integer() else c.demand,
                "start": c.start.isoformat(),
                "end": c.end.isoformat(),
            }
            if c.booked_demand != c.demand:
                rec["booked"] = int(c.booked_demand) \
                    if float(c.booked_demand).is_integer() else c.booked_demand
            if c.penalty != 10.0:
                rec["penalty"] = c.penalty
            fh.write(json.dumps(rec) + "\n")


def load_edges(path) -> List[Edge]:
    """Read an explicit edges.jsonl override: {"supply_id", "contract_id"} per line."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                edges.append((str(rec["supply_id"]), str(rec["contract_id"])))
            except (KeyError, ValueError, TypeError) as exc:
                raise GraphDataError(f"{path}:{lineno}: bad edge record: {exc}") from exc
    return edges


def replan_contract(contract: Contract, demand: float) -> Contract:
    """Copy of a contract with restated remaining demand (for re-optimization)."""
    return replace(contract, demand=demand)
