"""High water mark planning and stateless rate-based serving.

The offline pass orders contracts by eligible supply (scarcest first) and
computes one serving rate per contract by draining a remaining-supply vector;
the online pass needs only those per-contract numbers, so any number of
servers can evaluate it independently with no shared state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from . import kernels
from .model import (AllocationGraph, FractionalAllocation, GraphDataError,
                    read_plan_file, record_number,
                    validate_graph)


@dataclass(frozen=True)
class HwmEntry:
    contract_id: str
    eligible_supply: float
    alpha: float


@dataclass
class HwmPlan:
    """Compact allocation plan: entries in allocation order (ascending
    eligible supply, ties by contract id).  Entry index is the priority
    position used by the serve-time truncation rule."""

    entries: List[HwmEntry]
    diagnostics: List[str] = field(default_factory=list, compare=False)
    _pos: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._pos = {e.contract_id: i for i, e in enumerate(self.entries)}

    def position(self, contract_id: str) -> int:
        return self._pos[contract_id]

    def __contains__(self, contract_id: str) -> bool:
        return contract_id in self._pos

    def alpha(self, contract_id: str) -> float:
        return self.entries[self._pos[contract_id]].alpha

    def effective_probs(self, contract_ids: Sequence[str]) -> List[Tuple[str, float]]:
        """Serve-time probabilities for one impression's eligible contracts.

        Contracts are taken in allocation order and their rates truncated to
        a total of at most 1.  Unknown contract ids raise KeyError.
        """
        ordered = sorted(contract_ids, key=self._pos.__getitem__)
        rates = [self.entries[self._pos[cid]].alpha for cid in ordered]
        effs = kernels.effective_probs(rates)
        return list(zip(ordered, effs))


def solve_alpha(neighbors: Sequence[Tuple[float, float]], demand: float) -> float:
    """Smallest a with sum_i min(r_i, s_i * a) = demand; 1.0 when unsolvable.

    `neighbors` holds (remaining, supply) pairs with 0 <= remaining <= supply.
    """
    for r, s in neighbors:
        if r < 0 or s < 0:
            raise ValueError("remaining and supply must be non-negative")
        if r > s * (1 + 1e-12) + 1e-9:
            raise ValueError("remaining cannot exceed supply")
    remaining = [r for r, _ in neighbors]
    supply = [s for _, s in neighbors]
    return kernels.solve_rate(remaining, supply, demand)


def generate_hwm_plan(graph: AllocationGraph, *, validate: bool = True) -> HwmPlan:
    """Run the offline pass over a forecast graph.

    Contracts are processed in allocation order; each gets the rate that
    exactly absorbs its demand from the remaining supply of its neighbor
    nodes (rate 1 when the demand cannot be met), and the consumed supply is
    deducted before the next contract is handled.
    """
    if validate:
        violations = validate_graph(graph)
        if violations:
            raise GraphDataError("invalid graph: " + "; ".join(violations))
    eligible_supply = {c.id: graph.eligible_supply(c.id) for c in graph.contracts}
    order = sorted(graph.contracts, key=lambda c: (eligible_supply[c.id], c.id))
    remaining = {n.id: float(n.forecast_supply) for n in graph.supply_nodes}
    entries: List[HwmEntry] = []
    diagnostics: List[str] = []
    for contract in order:
        node_ids = graph.nodes_of[contract.id]
        if not node_ids:
            alpha = 1.0
            diagnostics.append(
                f"contract {contract.id}: no eligible supply nodes; "
                "rate set to 1 but it can never be served from this forecast")
        else:
            rem = [remaining[nid] for nid in node_ids]
            sup = [float(graph.node_by_id[nid].forecast_supply) for nid in node_ids]
            if sum(rem) < contract.demand:
                diagnostics.append(
                    f"contract {contract.id}: remaining eligible supply "
                    f"{sum(rem):.6g} is below demand {contract.demand:.6g}; "
                    "rate saturated at 1")
            alpha = kernels.solve_rate(rem, sup, float(contract.demand))
            for nid, s in zip(node_ids, sup):
                take = min(remaining[nid], s * alpha)
                remaining[nid] -= take
        entries.append(HwmEntry(contract.id, eligible_supply[contract.id], alpha))
    return HwmPlan(entries, diagnostics)


@dataclass(frozen=True)
class ServeDecision:
    """Outcome of one online evaluation."""

    impression_id: str
    chosen: Optional[str]
    probabilities: List[Tuple[str, float]]
    rng_trace: Optional[float] = None


class ServingPlan(Protocol):
    """What serving needs of a plan (`HwmPlan`, `DualPlan`, ...)."""

    def __contains__(self, contract_id: str) -> bool:
        """Whether the plan serves `contract_id`."""

    def effective_probs(self, contract_ids: Sequence[str]) -> List[Tuple[str, float]]:
        """Serve-time (contract id, probability) pairs for one impression's
        eligible contracts, in an order fixed by the plan, not by the input."""


def serve_hwm(plan: ServingPlan, eligible_ids: Sequence[str], u: float,
              impression_id: str = "") -> ServeDecision:
    """Pick a contract (or none) for one impression under any plan.

    `u` is the single uniform draw in [0, 1) consumed by the decision; the
    result depends only on the plan slice for `eligible_ids` and on `u`.
    `dual.serve_dual` is this same function.
    """
    probs = plan.effective_probs(eligible_ids)
    idx = kernels.draw_index([p for _, p in probs], u)
    chosen = probs[idx][0] if idx >= 0 else None
    return ServeDecision(impression_id, chosen, probs, u)


def expected_delivery(graph: AllocationGraph, plan: HwmPlan) -> Dict[str, float]:
    """Analytic expected impressions per contract when the forecast replays.

    Applies the serve-time truncation to each supply node's eligible list and
    accumulates s_i times the effective probability; no sampling involved.
    """
    delivered = {c.id: 0.0 for c in graph.contracts}
    for node in graph.supply_nodes:
        cids = [cid for cid in graph.contracts_of[node.id] if cid in plan]
        if not cids:
            continue
        for cid, p in plan.effective_probs(cids):
            delivered[cid] += node.forecast_supply * p
    return delivered


def induced_allocation(graph: AllocationGraph, plan: HwmPlan) -> FractionalAllocation:
    """Edge fractions implied by serve-time evaluation of the plan."""
    values = {}
    for node in graph.supply_nodes:
        cids = [cid for cid in graph.contracts_of[node.id] if cid in plan]
        for cid, p in plan.effective_probs(cids):
            if p > 0.0:
                values[(node.id, cid)] = p
    return FractionalAllocation(values)


def save_hwm_plan(plan: HwmPlan, path) -> None:
    """Write hwm_plan.jsonl; line order is the allocation order and must be
    preserved by consumers."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in plan.entries:
            supply = int(e.eligible_supply) if float(e.eligible_supply).is_integer() \
                else e.eligible_supply
            fh.write(json.dumps({"contract_id": e.contract_id,
                                 "eligible_supply": supply,
                                 "alpha": e.alpha}) + "\n")


def _hwm_entry(rec) -> HwmEntry:
    supply = float(record_number(rec, "eligible_supply"))
    alpha = float(record_number(rec, "alpha"))
    if supply < 0:
        raise ValueError(f"eligible_supply {supply} is negative")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} is outside [0, 1]")
    return HwmEntry(str(rec["contract_id"]), supply, alpha)


def load_hwm_plan(path) -> HwmPlan:
    return HwmPlan(read_plan_file(path, _hwm_entry))
