"""Bipartite supply-demand model: supply nodes, contracts, graphs, feasibility.

Supply counts are integer impression counts; allocation fractions and rates
are 64-bit floats.  Forecast restatement inside the simulator may produce
fractional supply values, so arithmetic treats supply as float throughout.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import (Callable, Dict, Iterator, List, Mapping, Optional, Protocol,
                    Sequence, Tuple, TypeVar)

from . import targeting as tg

AttributeMap = Dict[str, str]
T = TypeVar("T")
Edge = Tuple[str, str]

# The characters JSON counts as whitespace; `str.strip()` with no argument
# would also remove others (U+00A0, U+000C, ...) that `json.loads` rejects.
JSON_WHITESPACE = " \t\n\r"


class GraphDataError(ValueError):
    """Malformed graph input (bad reference, bad file line, ...)."""


def parse_ts(text: str) -> datetime:
    """Parse an ISO-8601 timestamp ('Z' suffix accepted).

    Zone-aware stamps are converted to UTC and returned naive, so inputs
    with mixed conventions stay comparable.  Anything but a string (a JSON
    number, null), and a zone-aware stamp whose UTC time is before year 1
    or after year 9999, raises ValueError, which loaders report with the
    line.
    """
    if type(text) is not str:
        raise ValueError(f"timestamp must be an ISO-8601 string, got {text!r}")
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is not None:
        try:
            ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError:
            raise ValueError(f"timestamp {text!r} is out of range in UTC") from None
    return ts


@dataclass(frozen=True)
class SupplyNode:
    """A class of forecasted impressions sharing one attribute combination."""

    id: str
    attributes: Mapping[str, str]
    forecast_supply: float

    def __post_init__(self):
        check_finite(f"supply node {self.id}: supply", self.forecast_supply)
        if self.forecast_supply < 0:
            raise GraphDataError(f"supply node {self.id}: negative supply")


@dataclass(frozen=True)
class Contract:
    """A guaranteed-delivery demand node with targeting and a flight window.

    `demand` is the currently reported remaining demand used for planning;
    `booked_demand` is the originally sold total, retained for metrics (the
    demand when not given).  Both must be positive; feedback may report a
    demand above the booked total.
    `penalty` is the per-impression underdelivery price used by the
    dual-based planner.
    """

    id: str
    targeting: tg.TargetingExpr
    demand: float
    start: datetime
    end: datetime
    booked_demand: Optional[float] = None
    penalty: float = 10.0

    def __post_init__(self):
        if self.booked_demand is None:
            object.__setattr__(self, "booked_demand", self.demand)
        for name, value in (("demand", self.demand), ("booked", self.booked_demand),
                            ("penalty", self.penalty)):
            check_finite(f"contract {self.id}: {name}", value)
        if self.demand <= 0:
            raise GraphDataError(f"contract {self.id}: demand must be positive")
        if self.start >= self.end:
            raise GraphDataError(f"contract {self.id}: start must precede end")
        if self.penalty <= 0:
            raise GraphDataError(f"contract {self.id}: penalty must be positive")
        if self.booked_demand <= 0:
            raise GraphDataError(
                f"contract {self.id}: booked {self.booked_demand} must be positive")

    @property
    def flight_hours(self) -> float:
        return (self.end - self.start).total_seconds() / 3600.0

    def in_flight(self, t: datetime) -> bool:
        return self.start <= t < self.end


def by_id(kind: str, items: Sequence[T]) -> Dict[str, T]:
    """`items` by their `id`; ids that repeat raise GraphDataError as
    `duplicate <kind> ids: <the ids, sorted>`."""
    out = {x.id: x for x in items}
    if len(out) != len(items):
        dups = sorted(i for i, n in Counter(x.id for x in items).items() if n > 1)
        raise GraphDataError(f"duplicate {kind} ids: " + ", ".join(dups))
    return out


@dataclass
class AllocationGraph:
    """The bipartite forecast graph: supply nodes, contracts, eligibility edges.

    Duplicate supply-node or contract ids raise GraphDataError (`by_id`),
    and so does an edge that names no node or no contract of the graph, or
    that is listed twice.  `build_graph` derives the edges from targeting.

    Treat as immutable once built; it can then be shared freely across
    serving threads.  Re-plans neither copy nor change it: a run builds one
    `PlanningIndex` of it, and each re-plan restates a supply vector and
    the live contracts' demands over that index (see `PlanningProblem`).
    """

    supply_nodes: List[SupplyNode]
    contracts: List[Contract]
    edges: List[Edge]

    def __post_init__(self):
        contracts = by_id("contract", self.contracts)
        nodes = by_id("supply node", self.supply_nodes)
        for sid, cid in self.edges:
            if sid not in nodes or cid not in contracts:
                what = "supply node" if sid not in nodes else "contract"
                raise GraphDataError(f"edge ({sid!r}, {cid!r}) names no {what} of the graph")
        if len(set(self.edges)) != len(self.edges):
            twice = next(e for e, n in Counter(self.edges).items() if n > 1)
            raise GraphDataError(f"edge {twice!r} is listed twice")


class PlanningIndex:
    """A graph's supply nodes and contracts by position, and its edges as
    position lists: built once, shared by every re-plan over the graph.

    `nodes_of[j]` lists the positions of contract j's supply nodes and
    `contracts_of[i]` those of node i's contracts, each in the graph's edge
    order.
    """

    def __init__(self, graph: AllocationGraph):
        self.node_ids = [n.id for n in graph.supply_nodes]
        self.contracts = list(graph.contracts)
        node_pos = {nid: i for i, nid in enumerate(self.node_ids)}
        contract_pos = {c.id: j for j, c in enumerate(self.contracts)}
        self.nodes_of: List[List[int]] = [[] for _ in self.contracts]
        self.contracts_of: List[List[int]] = [[] for _ in self.node_ids]
        for sid, cid in graph.edges:
            i, j = node_pos[sid], contract_pos[cid]
            self.nodes_of[j].append(i)
            self.contracts_of[i].append(j)


@dataclass(frozen=True)
class PlanningProblem:
    """What a planner reads: a `PlanningIndex`, the forecast supply of each
    node (by position) and the demand of each live contract (keyed by
    position, in graph order).  A contract left out is not planned.

    A re-plan restates these two vectors over its run's one index, so no
    graph, node or contract is built per re-plan.
    """

    index: PlanningIndex
    supply: Sequence[float]
    demand: Mapping[int, float]

    @classmethod
    def of(cls, graph) -> "PlanningProblem":
        """`graph` as a problem: a problem itself, else an `AllocationGraph`'s
        index, its nodes' forecast supply and its contracts' demands."""
        if isinstance(graph, cls):
            return graph
        return cls(PlanningIndex(graph), [n.forecast_supply for n in graph.supply_nodes],
                   {j: c.demand for j, c in enumerate(graph.contracts)})

    def eligible_supply(self, j: int) -> float:
        """Total forecast supply across contract j's nodes, in edge order.
        A total that is not finite, as finite supplies may sum to, raises
        GraphDataError: every planner reads its supply through here."""
        total = sum(map(self.supply.__getitem__, self.index.nodes_of[j]))
        check_finite(f"contract {self.index.contracts[j].id}: eligible forecast supply",
                     total)
        return total


def build_graph(supply_nodes: List[SupplyNode],
                contracts: List[Contract]) -> AllocationGraph:
    """Construct a graph with edges derived from targeting eligibility."""
    edges = tg.build_edges(supply_nodes, contracts)
    return AllocationGraph(supply_nodes, contracts, edges)


class ServingPlan(Protocol):
    """What serving needs of a plan (`HwmPlan`, `DualPlan`)."""

    def __contains__(self, contract_id: str) -> bool:
        """Whether the plan serves `contract_id`."""

    def effective_probs(self, contract_ids: Sequence[str]) -> List[Tuple[str, float]]:
        """Serve-time (contract id, probability) pairs for one impression's
        eligible contracts, in an order fixed by the plan, not by the input."""


def forecast_allocation(graph: AllocationGraph, plan: ServingPlan
                        ) -> Tuple[Dict[Edge, float], Dict[str, float]]:
    """Replay the forecast through any plan: edge fractions and delivery.

    Each supply node's planned contracts take the plan's serve-time
    probabilities; a contract's expected delivery is the sum of s_i times
    its probability at node i.  The fractions are sparse: an edge that is
    absent has x = 0.  No sampling is involved.
    """
    problem = PlanningProblem.of(graph)
    index = problem.index
    ids = [c.id for c in index.contracts]
    values = {}
    delivered = dict.fromkeys(ids, 0.0)
    for sid, s, js in zip(index.node_ids, problem.supply, index.contracts_of):
        cids = [ids[j] for j in js if ids[j] in plan]
        if not cids:
            continue
        for cid, p in plan.effective_probs(cids):
            if p > 0.0:
                values[(sid, cid)] = p
                delivered[cid] += s * p
    return values, delivered


@dataclass
class FeasibilityReport:
    feasible: bool
    demand_slack: Dict[str, float]
    supply_excess: Dict[str, float]
    negative_entries: List[Edge]


def check_feasibility(graph: AllocationGraph, alloc: Dict[Edge, float],
                      tol: float = 1e-9) -> FeasibilityReport:
    """Evaluate the demand, supply, and non-negativity constraint families
    for sparse edge fractions x (an absent edge has x = 0).

    demand_slack[j] = sum_i x_ij * s_i - d_j   (feasible iff >= -tol)
    supply_excess[i] = sum_j x_ij - 1          (feasible iff <= tol)
    """
    edges = set(graph.edges)
    for edge in alloc:
        if edge not in edges:
            raise GraphDataError(f"allocation references unknown edge {edge!r}")
    supply = {n.id: n.forecast_supply for n in graph.supply_nodes}
    delivered = {c.id: 0.0 for c in graph.contracts}
    used = {n.id: 0.0 for n in graph.supply_nodes}
    for sid, cid in graph.edges:
        x = alloc.get((sid, cid), 0.0)
        delivered[cid] += x * supply[sid]
        used[sid] += x
    demand_slack = {c.id: delivered[c.id] - c.demand for c in graph.contracts}
    supply_excess = {sid: total - 1.0 for sid, total in used.items()}
    negative = sorted(edge for edge, x in alloc.items() if x < -tol)
    feasible = (all(s >= -tol for s in demand_slack.values())
                and all(e <= tol for e in supply_excess.values())
                and not negative)
    return FeasibilityReport(feasible, demand_slack, supply_excess, negative)


# ---------------------------------------------------------------------------
# JSON-lines file formats
# ---------------------------------------------------------------------------

def json_number(x: float) -> float:
    """`x` as the files write it: an int when it is integral, so a count
    reads back as the count."""
    return int(x) if float(x).is_integer() else x


def record_number(rec, key: str, default: Optional[float] = None) -> float:
    """Field `key` of a JSON record, checked to be a finite number.

    A missing field takes `default` (KeyError when there is none); a field
    that is not a finite JSON number (a boolean, a string, NaN, Infinity,
    an integer beyond float range) raises ValueError.  Loaders catch both
    and report the file and line.  An integer is returned as an int, so a
    count read from a file equals the same count built in memory, down to
    how reports print it.
    """
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    if key not in rec:
        if default is None:
            raise KeyError(key)
        return default
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    check_finite(key, value)
    return value


def check_finite(name: str, value) -> None:
    """Raise GraphDataError as `<name> must be a finite number, got <value>`
    unless the number `value` is finite; an int that no float can hold is
    given by its count of digits."""
    try:
        finite = math.isfinite(value)
    except OverflowError:       # an int that no float can hold
        # Its digits, counted from its bits: `str` refuses an int of more
        # than 4,300 digits.  The estimate is off by at most one.
        n = abs(value)
        digits = int((n.bit_length() - 1) * math.log10(2)) + 1
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        raise GraphDataError(f"{name} must be a finite number, got an integer of "
                             f"{digits} digits") from None
    if not finite:
        raise GraphDataError(f"{name} must be a finite number, got {value!r}")


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


_LINES_HINT = 1 << 15       # about the characters of one block of `line_blocks`


def line_blocks(path, what: str, start: int = 0, first_line: int = 1,
                lines: Optional[int] = None) -> Iterator[Tuple[int, List[str]]]:
    """The lines of a UTF-8 text file in blocks: (number of the block's first
    line, its lines), each block about `_LINES_HINT` characters.  Files are
    read through `read_records`, which applies the rest of the reading rule.

    Lines end at `\n`, `\r\n` or a lone `\r`, as a text file reads them.
    Reading starts at byte `start`, which must be 0 or just after a `\n`,
    numbers the first line `first_line` and stops after `lines` lines (at
    the end of the file when None).

    A line that is not UTF-8 raises GraphDataError as `path:line: bad
    <what>: <reason>`, after every line before it has been yielded.  The
    text reader decodes ahead of the lines it returns, so after a decoding
    error the rest is read again from the first line not yet yielded, and
    each line is decoded on its own and yielded in a block of one.  Only
    that error path decodes line by line.
    """
    lineno, left = first_line, lines
    with open(path, "rb") as raw:
        raw.seek(start)
        fh = io.TextIOWrapper(raw, encoding="utf-8")
        while left is None or left > 0:
            try:
                block = fh.readlines(_LINES_HINT)
            except UnicodeDecodeError:
                break
            if not block:
                return
            if left is not None:
                del block[left:]
                left -= len(block)
            yield lineno, block
            lineno += len(block)
        else:
            return
    yield from _decoded_lines(path, what, start, first_line, lines, lineno)


def _decoded_lines(path, what: str, start: int, first_line: int,
                   lines: Optional[int], resume: int) -> Iterator[Tuple[int, List[str]]]:
    """`line_blocks` from line `resume` on, each line decoded on its own."""
    n, lines_end = first_line, None if lines is None else first_line + lines
    with open(path, "rb") as raw:
        raw.seek(start)
        for chunk in raw:                   # split at b"\n" only
            for line in chunk.splitlines(keepends=True):
                if n == lines_end:
                    return
                if n >= resume:
                    try:
                        text = line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise GraphDataError(f"{path}:{n}: bad {what}: {exc}") from exc
                    yield n, [text]
                n += 1


def read_records(path, what: str, parse: Callable[[str], T]) -> Iterator[T]:
    """`parse(line)` for each non-blank line of a UTF-8 text file.

    The one reading rule of every line file: lines are read by
    `line_blocks`, each is stripped of JSON whitespace, and one left empty
    is skipped.  A line that `parse` rejects (KeyError, ValueError or
    TypeError, or RecursionError, as the JSON decoder raises on a value
    nested too deeply), or that is not UTF-8, raises GraphDataError as
    `path:line: bad <what>: <reason>`, after the items of the lines before
    it.
    """
    for first, block in line_blocks(path, what):
        yield from parse_lines(path, what, parse, first, block)


def parse_lines(path, what: str, parse: Callable[[str], T], first: int,
                block: Sequence[str]) -> Iterator[T]:
    """`parse(line)` for each non-blank line of one block of `line_blocks`,
    whose first line is line `first` of `path`, by the rule of
    `read_records`."""
    for lineno, line in enumerate(block, first):
        line = line.strip(JSON_WHITESPACE)
        if not line:
            continue
        try:
            item = parse(line)
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise GraphDataError(f"{path}:{lineno}: bad {what}: {exc}") from exc
        yield item


def read_plan_file(path, parse: Callable[[dict], T]) -> List[T]:
    """Parse a plan file, one JSON record per non-blank line, with `parse`.

    A record that `parse` rejects or that lists a contract already listed
    fails with the file and line (see `read_records`).
    """
    seen = set()

    def entry(line: str) -> T:
        item = parse(json.loads(line))
        if item.contract_id in seen:
            raise ValueError(f"contract {item.contract_id!r} is listed twice")
        seen.add(item.contract_id)
        return item
    return list(read_records(path, "plan record", entry))


def _supply_node(line: str) -> SupplyNode:
    rec = json.loads(line)
    return SupplyNode(str(rec["id"]), record_attributes(rec), record_number(rec, "supply"))


def load_supply(path) -> List[SupplyNode]:
    """Read supply.jsonl: {"id", "attributes": {..}, "supply": int} per line."""
    return list(read_records(path, "supply record", _supply_node))


def save_supply(nodes: List[SupplyNode], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n in nodes:
            fh.write(json.dumps({"id": n.id, "attributes": dict(n.attributes),
                                 "supply": json_number(n.forecast_supply)}) + "\n")


def _contract(line: str) -> Contract:
    rec = json.loads(line)
    try:
        targeting = tg.parse_targeting(rec["targeting"])
    except tg.TargetingSyntaxError as exc:
        raise ValueError(f"targeting: {exc}") from exc
    cid, demand = str(rec["id"]), record_number(rec, "demand")
    start, end = parse_ts(rec["start"]), parse_ts(rec["end"])
    booked = record_number(rec, "booked", demand)
    penalty = record_number(rec, "penalty", 10.0)
    # Before the contract is built: booked >= demand > 0 implies booked > 0,
    # so a booked total of 0 is reported as below the demand.
    if booked < demand:
        raise ValueError(f"booked {booked} is below demand {demand}")
    return Contract(cid, targeting, demand, start, end, booked, penalty)


def load_contracts(path) -> List[Contract]:
    """Read contracts.jsonl: {"id", "targeting", "demand", "start", "end"[, "penalty", "booked"]}.

    "booked" (default: the demand) may not be below the demand.  A
    targeting text that does not parse fails as `bad contract record:
    targeting: <reason>`.
    """
    return list(read_records(path, "contract record", _contract))


def save_contracts(contracts: List[Contract], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in contracts:
            rec = {
                "id": c.id,
                "targeting": tg.unparse(c.targeting),
                "demand": json_number(c.demand),
                "start": c.start.isoformat(),
                "end": c.end.isoformat(),
            }
            if c.booked_demand != c.demand:
                rec["booked"] = json_number(c.booked_demand)
            if c.penalty != 10.0:
                rec["penalty"] = c.penalty
            fh.write(json.dumps(rec) + "\n")
